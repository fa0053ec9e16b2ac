//! Parallel fleet control loop with deterministic replay.
//!
//! The paper's service runs one control plane per region over hundreds of
//! thousands of databases; control-plane passes for distinct databases
//! are embarrassingly parallel because every piece of tuning state is
//! per-database. This module exploits exactly that: the fleet is split
//! into *shard-owned* tenant states (each tenant gets its own journaled
//! [`StateStore`] with a disjoint [`RecoId`](crate::state::RecoId)
//! block, its own [`Telemetry`] sink, and its own per-tenant-seeded
//! [`FaultInjector`]), and the crate's one ordered pool drives
//! `workload → ControlPlane::tick` loops for many tenants concurrently.
//! No global mutex is touched on the hot path; global aggregates are
//! produced by merging the per-tenant sinks **in fleet order** at
//! quiesce.
//!
//! # One kernel
//!
//! `FleetDriver::run_tenant` is the only loop that ever ticks a
//! tenant: set up the worker, step it `ticks` times, roll up its
//! outcome. It is *tenant-major* — a tenant runs all its ticks before
//! the executor touches the next one — on every path: the serial run,
//! the pooled run, and the sharded region's lazily hydrated waves all
//! map this one function over their tenants. Tenant-major and
//! tick-major orders are interchangeable because every decision a step
//! takes reads only that tenant's own state (its clock, store, fault
//! stream, wake tick and quarantine window); no tenant ever observes
//! another, so the order tenants interleave in cannot reach any output.
//!
//! Determinism: every random decision is drawn from state seeded by the
//! tenant's *fleet index* — never by the executing thread — so a run
//! with `threads = N` produces byte-identical end-of-run fleet state
//! ([`FleetReport::canonical_string`]) to a `threads = 1` serial run, no
//! matter which worker claimed which tenant. That property is what makes
//! fleet-scale failures replayable: re-run serially with the same seeds
//! and step through the one tenant that misbehaved.
//!
//! # Sparse scheduling
//!
//! A fleet is mostly idle: at any instant only a few percent of tenants
//! have due control-plane work (an analysis interval elapsing, a retry
//! backoff expiring, a validation window closing). Under
//! [`SchedulingMode::Sparse`] each control pass returns a
//! [`WakeSchedule`](crate::stages::WakeSchedule) naming the next instant
//! any stage could act, the step maps it onto the tick grid as the
//! tenant's wake tick, and ticks before that wake run only the tenant's
//! workload slice — the control pass is skipped entirely. A skipped pass
//! is unobservable — a dense control pass with no due work changes no
//! state, emits no telemetry, and draws no fault randomness — so sparse
//! and dense runs produce byte-identical
//! [`FleetReport::canonical_string`] output. Dense mode is kept as the
//! replay oracle for exactly that property. Scripted
//! [`FaultPoint::JournalTear`] faults are probed at the start of every
//! non-quarantined tick — keyed by `(tenant, tick)`, not by executed
//! control passes — so their firing ticks are identical in both modes; a
//! tear forces that tick's control pass (dense would have run it anyway)
//! so the recovered state is reprocessed at the same instant everywhere.

use crate::dashboard::DashboardSnapshot;
use crate::faults::{FaultInjector, FaultKind, FaultPoint};
use crate::hash::{fnv1a64_extend, splitmix64_mix, FNV_OFFSET};
use crate::metrics::MetricsRegistry;
use crate::plane::{ControlPlane, ManagedDb, PlanePolicy};
use crate::pool;
use crate::state::{effective, DbSettings, ServerSettings};
use crate::store::StateStore;
use crate::telemetry::{EventKind, Telemetry};
use sqlmini::clock::{Duration, Timestamp};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workload::fleet::Tenant;
use workload::model::WorkloadModel;
use workload::runner::{RunSummary, WorkloadRunner};

/// A deterministic fault script targeting one tenant of the fleet: the
/// next `count` checks at `point` on that tenant's injector fail with
/// `kind`. Scripts stack (they append to the tenant's queue), composing
/// with any stochastic `fault_seed` configuration.
#[derive(Debug, Clone)]
pub struct TenantScript {
    /// Fleet index of the tenant the script applies to.
    pub tenant: usize,
    pub point: FaultPoint,
    pub count: u32,
    pub kind: FaultKind,
    /// The script arms at the start of this tick (`0`: the first) —
    /// keying the fault by `(tenant, tick)` so its firing point is
    /// identical under dense and sparse scheduling. A tick the tenant
    /// spends in quarantine arms nothing.
    pub at_tick: u64,
}

/// How the fleet driver decides which ticks take a control-plane pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Every non-quarantined tick takes a control pass. The replay
    /// oracle: trivially correct, O(fleet) control work per tick.
    Dense,
    /// Control passes run only when the tenant's
    /// [`WakeSchedule`](crate::stages::WakeSchedule) says work could be
    /// due — O(active) control work per tick, byte-identical end state
    /// to `Dense`.
    Sparse,
}

impl Default for SchedulingMode {
    /// Sparse ships as the default: it is byte-equivalent to the dense
    /// oracle (pinned by `tests/sparse_dense.rs`) and does O(active)
    /// control work per tick instead of O(fleet). Dense remains
    /// available as the replay oracle for equivalence tests.
    fn default() -> SchedulingMode {
        SchedulingMode::Sparse
    }
}

/// Each tenant's store allocates RecoIds from `index * ID_STRIDE`,
/// keeping ids disjoint fleet-wide.
const ID_STRIDE: u64 = 1_000_000;

/// Knobs for a fleet run. Everything that influences tenant behavior
/// lives here or in the tenants themselves (each engine's own
/// `DbConfig`, plan cache included), so a config + fleet seed fully
/// determines the outcome.
#[derive(Debug, Clone)]
pub struct FleetDriverConfig {
    pub policy: PlanePolicy,
    /// Simulated time advanced per tick (workload runs for the whole
    /// interval, then the control plane takes one pass).
    pub tick_interval: Duration,
    /// When set, each tenant gets a stochastic fault injector seeded
    /// from this value and the tenant's fleet index.
    pub fault_seed: Option<u64>,
    pub fault_transient_prob: f64,
    pub fault_fatal_prob: f64,
    /// Circuit breaker: this many *consecutive* ticks with at least one
    /// injected fault quarantines the tenant (`0` disables). Counted per
    /// tenant from per-tenant state only, so it replays deterministically.
    pub quarantine_threshold: u32,
    /// Ticks a quarantined tenant's control plane sits out. The tenant's
    /// workload keeps running — the customer's database stays up; only
    /// the tuner backs away.
    pub quarantine_cooldown: u32,
    /// Chaos knob: crash + recover each tenant's store at the *start* of
    /// every `k`-th tick after the first (`0`/`None` disables). Tick
    /// boundaries are the process-restart points (no recommendation is
    /// ever mid-flight there) and the cadence is a pure function of the
    /// tick number, so a sweep with an intact journal replays
    /// byte-identically to an uncrashed run under either scheduling mode
    /// and any thread count.
    pub crash_every_ticks: Option<u32>,
    /// Deterministic per-tenant fault scripts, each armed at its tick.
    pub scripts: Vec<TenantScript>,
    /// When set, this fraction of tenants (chosen by a pure hash of the
    /// fleet index — thread-independent) runs with auto-implementation
    /// fully ON and the rest in recommend-only mode; unset, every tenant
    /// is fully ON. Models §8.1's "about a quarter of eligible databases
    /// have auto-implementation enabled".
    pub auto_fraction: Option<f64>,
    /// Dense (oracle) vs sparse (due-time-indexed) control scheduling.
    pub scheduling: SchedulingMode,
}

impl Default for FleetDriverConfig {
    fn default() -> FleetDriverConfig {
        FleetDriverConfig {
            policy: PlanePolicy::default(),
            tick_interval: Duration::from_hours(1),
            fault_seed: None,
            fault_transient_prob: 0.0,
            fault_fatal_prob: 0.0,
            quarantine_threshold: 0,
            quarantine_cooldown: 0,
            crash_every_ticks: None,
            scripts: Vec::new(),
            auto_fraction: None,
            scheduling: SchedulingMode::default(),
        }
    }
}

/// Deterministic 64-bit hash of a fleet index and a salt — splitmix64
/// finalizer. The raw-bits form of `index_hash01`, shared with the
/// shard assignment (which needs integer slots, not a float draw).
pub fn index_hash_bits(index: usize, salt: u64) -> u64 {
    splitmix64_mix((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Deterministic uniform draw in [0, 1) from a fleet index and a salt —
/// splitmix64 finalizer, so sampled assignments replay regardless of
/// threading and of any fault seeding. Distinct salts give independent
/// streams over the same fleet (auto-implement assignment vs flight
/// cohorts vs shard slots).
pub(crate) fn index_hash01(index: usize, salt: u64) -> f64 {
    (index_hash_bits(index, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The auto-fraction stream (historical salt, kept byte-identical).
fn index_uniform01(index: usize) -> f64 {
    index_hash01(index, 0xA070_F8AC)
}

/// How a tenant's worker finished.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum TenantStatus {
    /// All ticks ran (possibly with quarantine windows).
    Completed,
    /// The worker panicked at `tick`; the supervisor caught the unwind,
    /// froze the tenant's state as-is, and kept the rest of the fleet
    /// running.
    Poisoned { tick: u32, note: String },
}

impl TenantStatus {
    pub fn is_poisoned(&self) -> bool {
        matches!(self, TenantStatus::Poisoned { .. })
    }
}

/// End-of-run state of one tenant, in a canonically serializable form.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TenantOutcome {
    pub name: String,
    /// Recommendations ever tracked for this tenant.
    pub recommendations: usize,
    /// Recommendation count per state name.
    pub by_state: BTreeMap<String, usize>,
    /// Validation verdict counters (the `Validation*` event kinds).
    verdicts: BTreeMap<String, u64>,
    /// Fault/failure counters (transient + fatal, aborted DTA sessions,
    /// quarantines, poisonings).
    faults: BTreeMap<String, u64>,
    incidents: usize,
    /// Logical journal writes ever made — proxy for state-store write
    /// traffic. Monotonic across compaction and crash-recovery
    /// (checkpoint frames excluded), so compaction-on and compaction-off
    /// runs agree on it byte-for-byte.
    pub journal_writes: u64,
    /// Final index names on the tenant database, sorted.
    pub indexes: Vec<String>,
    pub statements: u64,
    errors: u64,
    rows_returned: u64,
    /// How the worker finished (panics surface here, not as aborts).
    pub status: TenantStatus,
    /// Circuit-breaker trips for this tenant.
    pub quarantines: u64,
    /// Ticks spent in quarantine cool-down (control plane idle).
    pub quarantined_ticks: u64,
}

impl TenantOutcome {
    fn collect(
        name: String,
        plane: &ControlPlane,
        mdb: &ManagedDb,
        run: &RunSummary,
        supervision: SupervisionSummary,
    ) -> TenantOutcome {
        const VERDICT_KINDS: [EventKind; 4] = [
            EventKind::ValidationImproved,
            EventKind::ValidationInconclusive,
            EventKind::ValidationRegressed,
            EventKind::ValidationNoData,
        ];
        const FAULT_KINDS: [EventKind; 6] = [
            EventKind::ImplementFailedTransient,
            EventKind::ImplementFailedFatal,
            EventKind::RevertFailedTransient,
            EventKind::DtaSessionAborted,
            EventKind::TenantQuarantined,
            EventKind::TenantPoisoned,
        ];
        let counter_map = |kinds: &[EventKind]| -> BTreeMap<String, u64> {
            kinds
                .iter()
                .map(|k| (format!("{k:?}"), plane.telemetry.count(*k)))
                .filter(|(_, v)| *v > 0)
                .collect()
        };
        let mut indexes: Vec<String> = mdb
            .db
            .catalog()
            .indexes()
            .map(|(_, def)| def.name.clone())
            .collect();
        indexes.sort_unstable();
        TenantOutcome {
            name,
            recommendations: plane.store.len(),
            by_state: plane.store.count_by_state(),
            verdicts: counter_map(&VERDICT_KINDS),
            faults: counter_map(&FAULT_KINDS),
            incidents: plane.telemetry.incidents().len(),
            journal_writes: plane.store.journal_writes(),
            indexes,
            statements: run.statements,
            errors: run.errors,
            rows_returned: run.rows_returned,
            status: supervision.status,
            quarantines: supervision.quarantines,
            quarantined_ticks: supervision.quarantined_ticks,
        }
    }
}

/// What the per-tenant supervisor observed over one worker's run.
struct SupervisionSummary {
    status: TenantStatus,
    quarantines: u64,
    quarantined_ticks: u64,
}

/// Merged end-of-run state of the whole fleet. Everything except
/// `threads`, `scheduling`, and `scheduler_metrics` is identical between
/// serial and parallel runs — and between dense and sparse runs — of the
/// same fleet + config.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-tenant outcomes, in fleet order.
    pub tenants: Vec<TenantOutcome>,
    /// All tenants' telemetry, merged in fleet order.
    pub telemetry: Telemetry,
    /// All tenants' metrics registries, merged in fleet order (merge is
    /// commutative, so the order is convention, not correctness).
    pub metrics: MetricsRegistry,
    /// Scheduler bookkeeping (control passes executed vs skipped),
    /// merged from per-tenant shards. Kept out of `metrics` so the
    /// canonical surface stays mode-independent.
    pub scheduler_metrics: MetricsRegistry,
    /// Fleet-wide recommendation count per state name.
    pub by_state: BTreeMap<String, usize>,
    pub statements: u64,
    pub errors: u64,
    /// Tenants whose workers panicked and were isolated.
    pub poisoned: usize,
    /// Circuit-breaker trips across the fleet.
    pub quarantines: u64,
    pub ticks: u32,
    /// Simulated time each tenant was driven (ticks × tick interval).
    sim_time: Duration,
    pub threads: usize,
}

/// The order-free part of a fleet's end-of-run state: the three merged
/// sinks and the summed per-tenant tallies. One tenant's worker hands
/// back a `FleetTotals` of its own; shards, regions and the unsharded
/// report all build theirs with `FleetTotals::absorb`, the one fold.
#[derive(Debug)]
pub(crate) struct FleetTotals {
    /// Telemetry merged in fold order (counters exact; raw events capped
    /// by the fold's retention).
    pub(crate) telemetry: Telemetry,
    /// Canonical metrics merged (a commutative monoid).
    pub(crate) metrics: MetricsRegistry,
    /// Driver bookkeeping (scheduler/plan-cache/journal counters), kept
    /// out of `metrics` so the canonical surface stays mode-independent.
    pub(crate) scheduler_metrics: MetricsRegistry,
    /// Recommendation count per state name.
    pub(crate) by_state: BTreeMap<String, usize>,
    pub(crate) statements: u64,
    pub(crate) errors: u64,
    /// Tenants whose workers panicked and were isolated.
    pub(crate) poisoned: usize,
    /// Circuit-breaker trips.
    quarantines: u64,
}

impl FleetTotals {
    pub(crate) fn new() -> FleetTotals {
        FleetTotals {
            telemetry: Telemetry::new(),
            metrics: MetricsRegistry::new(),
            scheduler_metrics: MetricsRegistry::new(),
            by_state: BTreeMap::new(),
            statements: 0,
            errors: 0,
            poisoned: 0,
            quarantines: 0,
        }
    }

    /// Fold `other` in. Counters and tallies stay exact; raw events and
    /// incidents are cut to the most recent `raw_events`, so a fold over
    /// a million tenants stays bounded (`usize::MAX` keeps all).
    pub(crate) fn absorb(&mut self, other: FleetTotals, raw_events: usize) {
        self.telemetry.merge(other.telemetry);
        self.telemetry.retain_recent(raw_events);
        self.metrics.merge(&other.metrics);
        self.scheduler_metrics.merge(&other.scheduler_metrics);
        for (state, n) in other.by_state {
            *self.by_state.entry(state).or_default() += n;
        }
        self.statements += other.statements;
        self.errors += other.errors;
        self.poisoned += other.poisoned;
        self.quarantines += other.quarantines;
    }
}

/// What one tenant's worker hands back at quiesce: its outcome and its
/// one-tenant totals.
pub(crate) type TenantResult = (TenantOutcome, FleetTotals);

impl FleetReport {
    /// Roll the merged telemetry and metrics into the §8.1 ops table.
    pub fn dashboard(&self) -> DashboardSnapshot {
        DashboardSnapshot::new(&self.telemetry, &self.metrics, self.sim_time)
    }

    /// The §8.1 ops table plus the fleet-scheduler and plan-cache blocks
    /// (driver bookkeeping). Mode-dependent by construction — use
    /// [`FleetReport::dashboard`] when comparing runs across modes or
    /// across cache settings.
    pub fn dashboard_with_scheduler(&self) -> DashboardSnapshot {
        self.dashboard().with_driver(&self.scheduler_metrics)
    }

    /// Control-plane passes that actually ran.
    pub fn control_ticks_executed(&self) -> u64 {
        self.scheduler_metrics.counter("scheduler.ticks_executed")
    }

    /// Control-plane passes the sparse scheduler proved unnecessary.
    pub fn control_ticks_skipped(&self) -> u64 {
        self.scheduler_metrics.counter("scheduler.ticks_skipped")
    }

    /// Statement executions served by a memoized plan, fleet-wide.
    pub fn plan_cache_hits(&self) -> u64 {
        self.scheduler_metrics.counter("plan_cache.hits")
    }

    /// Statement executions that compiled a plan (cache miss or cache
    /// disabled).
    pub fn plan_cache_misses(&self) -> u64 {
        self.scheduler_metrics.counter("plan_cache.misses")
    }

    /// Cached plans discarded because the tenant's catalog fingerprint
    /// moved (index DDL, stats refresh, schema change, restart).
    pub fn plan_cache_invalidations(&self) -> u64 {
        self.scheduler_metrics.counter("plan_cache.invalidations")
    }

    /// Store crash-recoveries across the fleet (chaos sweeps + faults).
    pub fn store_recoveries(&self) -> u64 {
        self.scheduler_metrics.counter("journal.recoveries")
    }

    /// Checkpoint frames written by journal compaction, fleet-wide.
    pub fn checkpoints_written(&self) -> u64 {
        self.scheduler_metrics
            .counter("journal.checkpoints_written")
    }

    /// Journal frames truncated away by compaction, fleet-wide.
    pub fn frames_compacted(&self) -> u64 {
        self.scheduler_metrics.counter("journal.frames_compacted")
    }

    /// Recoveries that stepped down the checkpoint fallback ladder.
    pub fn fallback_recoveries(&self) -> u64 {
        self.scheduler_metrics
            .counter("journal.fallback_recoveries")
    }

    /// End-of-run journal bytes summed over all tenant stores.
    pub fn journal_bytes(&self) -> u64 {
        self.scheduler_metrics.counter("journal.bytes")
    }

    /// Fleet-wide plan-cache hit rate in [0, 1].
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits() + self.plan_cache_misses();
        if total == 0 {
            return 0.0;
        }
        self.plan_cache_hits() as f64 / total as f64
    }

    /// Canonical serialization of the end-of-run fleet state: one JSON
    /// line per tenant (in fleet order) plus the merged counters.
    /// Serial and parallel runs of the same fleet + config produce
    /// byte-identical output — the determinism contract the property
    /// and integration tests pin down. Sparse and dense runs do too:
    /// scheduler bookkeeping deliberately lives outside this surface.
    pub fn canonical_string(&self) -> String {
        let mut out = String::new();
        for t in &self.tenants {
            out.push_str(&canonical_line(t));
        }
        out.push_str(&counters_line(&self.telemetry));
        out
    }

    /// Streaming digest of [`FleetReport::canonical_string`]: the FNV-1a
    /// fold of each tenant line's own FNV-1a hash (in fleet order),
    /// extended with the counters line. Two reports have equal digests
    /// iff their canonical strings are byte-identical (modulo hash
    /// collisions) — this is the surface the sharded region driver
    /// compares at fleet sizes where retaining a million `TenantOutcome`s
    /// is not an option.
    pub fn canonical_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for t in &self.tenants {
            let line = fnv1a64_extend(FNV_OFFSET, canonical_line(t).as_bytes());
            h = fnv1a64_extend(h, &line.to_le_bytes());
        }
        fnv1a64_extend(h, counters_line(&self.telemetry).as_bytes())
    }
}

/// One tenant's line of the canonical fleet serialization (JSON +
/// newline). Shared by [`FleetReport::canonical_string`] and the sharded
/// region driver's streaming digest, so both surfaces are byte-defined
/// by the same formatter.
pub(crate) fn canonical_line(outcome: &TenantOutcome) -> String {
    let mut line = serde_json::to_string(outcome).expect("outcome serializes");
    line.push('\n');
    line
}

/// The trailing counters line of the canonical fleet serialization.
pub fn counters_line(telemetry: &Telemetry) -> String {
    let mut out = String::from("counters:");
    for (kind, n) in telemetry.counters() {
        out.push_str(&format!(" {kind:?}={n}"));
    }
    out.push('\n');
    out
}

/// Render a caught panic payload as a short note for telemetry.
fn panic_note(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Wake-tick sentinel: the tenant never needs another control pass.
const NEVER: u64 = u64::MAX;

/// One tenant's live control loop: everything [`FleetDriver::step_tenant`]
/// needs to run one tick, owned by exactly one executor at a time. All
/// supervision and scheduling state derives from these per-tenant fields
/// only, which is the determinism argument.
struct TenantWorker {
    index: usize,
    name: String,
    plane: ControlPlane,
    mdb: ManagedDb,
    model: WorkloadModel,
    runner: WorkloadRunner,
    run: RunSummary,
    supervision: SupervisionSummary,
    consecutive_faulted: u32,
    quarantined_until: u32,
    t_start: Timestamp,
    /// First tick on which control work could be due ([`NEVER`] parks
    /// the tenant). Starts at 0: the first pass must run, there is no
    /// schedule yet.
    next_wake: u64,
    /// Scheduler counters, shard-owned like every other sink but merged
    /// into [`FleetReport::scheduler_metrics`], not the canonical
    /// registry.
    sched: MetricsRegistry,
    /// Poisoned: the worker is frozen, no further ticks run.
    done: bool,
}

/// The parallel fleet driver. See the module docs for the sharding and
/// determinism story.
#[derive(Debug, Clone, Default)]
pub struct FleetDriver {
    config: FleetDriverConfig,
}

impl FleetDriver {
    pub fn new(config: FleetDriverConfig) -> FleetDriver {
        FleetDriver { config }
    }

    /// Drive every tenant for `ticks` control-plane passes on up to
    /// `threads` pool workers (`0` and `1` both mean serial, on the
    /// caller's thread). Consumes the fleet; the merged end-of-run state
    /// comes back in the report, in fleet order.
    pub fn run(&self, fleet: Vec<Tenant>, ticks: u32, threads: usize) -> FleetReport {
        let results = pool::map_ordered(fleet, threads, |index, tenant| {
            self.run_tenant(index, tenant, ticks)
        });
        // Quiesce: fold the shard-owned sinks in fleet order, keeping
        // every tenant's events.
        let mut totals = FleetTotals::new();
        let tenants = results
            .into_iter()
            .map(|(outcome, tenant_totals)| {
                totals.absorb(tenant_totals, usize::MAX);
                outcome
            })
            .collect();
        let FleetTotals {
            telemetry,
            metrics,
            scheduler_metrics,
            by_state,
            statements,
            errors,
            poisoned,
            quarantines,
        } = totals;
        FleetReport {
            tenants,
            telemetry,
            metrics,
            scheduler_metrics,
            by_state,
            statements,
            errors,
            poisoned,
            quarantines,
            ticks,
            sim_time: Duration::from_millis(self.config.tick_interval.millis() * ticks as u64),
            threads: threads.max(1),
        }
    }

    /// Set up one tenant's worker: journaled store with a disjoint id
    /// block, index-seeded fault injector, per-tenant settings, and a
    /// detached clock.
    fn worker(&self, index: usize, tenant: Tenant) -> TenantWorker {
        let mut plane = ControlPlane::new(self.config.policy.clone());
        plane.store = StateStore::with_id_base(index as u64 * ID_STRIDE);
        if let Some(seed) = self.config.fault_seed {
            // Seeded by fleet index, NOT by worker thread: replays the
            // same fault schedule wherever the tenant executes.
            let tenant_seed = seed ^ (index as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
            plane.faults = FaultInjector::uniform(
                tenant_seed,
                self.config.fault_transient_prob,
                self.config.fault_fatal_prob,
            );
        }
        let Tenant {
            name,
            mut db,
            model,
            runner,
            ..
        } = tenant;
        // A cloned tenant shares its ancestor's SimClock (clone shares
        // time by design, for A/B instances). Detach so this tenant owns
        // its time stream — otherwise driving one clone of a fleet would
        // advance time for every other clone and wreck replay.
        db.detach_clock();
        // Per-tenant settings: full auto everywhere, or (§8.1) a
        // hash-chosen fraction of the fleet on full auto and the rest in
        // recommend-only mode.
        let settings = match self.config.auto_fraction {
            None => DbSettings::all_on(),
            Some(f) if index_uniform01(index) < f => DbSettings::all_on(),
            Some(_) => DbSettings::default(),
        };
        let mdb = ManagedDb::new(db, settings, ServerSettings::default());
        // Population gauges: each shard reports itself; the fleet totals
        // appear when the registries merge at quiesce.
        plane.metrics.gauge_set("fleet.tenants", 1);
        let (auto_create, auto_drop) = effective(settings, ServerSettings::default());
        if auto_create || auto_drop {
            plane.metrics.gauge_set("fleet.auto_tenants", 1);
        }
        let t_start = mdb.db.clock().now();
        TenantWorker {
            index,
            name,
            plane,
            mdb,
            model,
            runner,
            run: RunSummary::default(),
            supervision: SupervisionSummary {
                status: TenantStatus::Completed,
                quarantines: 0,
                quarantined_ticks: 0,
            },
            consecutive_faulted: 0,
            quarantined_until: 0,
            t_start,
            next_wake: 0,
            sched: MetricsRegistry::new(),
            done: false,
        }
    }

    /// Freeze a panicked worker: emit the poison event, record the
    /// status, and mark the worker done so no further ticks run.
    fn poison(&self, w: &mut TenantWorker, tick: u32, payload: Box<dyn std::any::Any + Send>) {
        let note = panic_note(payload.as_ref());
        w.plane.telemetry.emit(
            EventKind::TenantPoisoned,
            &w.mdb.db.name,
            note.clone(),
            w.mdb.db.clock().now(),
        );
        w.supervision.status = TenantStatus::Poisoned { tick, note };
        w.done = true;
    }

    /// One tick of one tenant: the workload slice always runs; the
    /// control pass runs when it is due — every tick in dense mode, from
    /// the tenant's wake tick on in sparse mode — and never during a
    /// quarantine cool-down.
    ///
    /// The tick is *supervised*: it runs under `catch_unwind`, so a
    /// panicking tenant is frozen and reported as
    /// [`TenantStatus::Poisoned`] instead of aborting the whole fleet;
    /// consecutive faulted ticks trip a quarantine circuit-breaker; and
    /// the chaos `crash_every_ticks` knob crash-recovers the journaled
    /// store at tick boundaries. All supervision decisions derive from
    /// per-tenant state only, so they replay deterministically.
    fn step_tenant(&self, w: &mut TenantWorker, tick: u32) {
        let interval = self.config.tick_interval;
        if tick < w.quarantined_until {
            // Cool-down: the customer's workload keeps running, the
            // tuner stays away from the tenant entirely.
            w.supervision.quarantined_ticks += 1;
            w.plane.metrics.inc("fleet.quarantined_ticks");
            w.runner
                .run_slice_into(&mut w.mdb.db, &w.model, interval, &mut w.run);
            return;
        }
        // Arm this tick's scripts, then take the tick-boundary
        // process-death probes. JournalTear models the process dying
        // between ticks, so it is consumed here — keyed by
        // `(tenant, tick)`, identical under dense and sparse scheduling —
        // not inside the control pass, where sparse skips would shift its
        // firing tick. The count toward the quarantine breaker starts
        // here too, so a tear is a faulted tick in both modes.
        for s in self
            .config
            .scripts
            .iter()
            .filter(|s| s.tenant == w.index && s.at_tick == tick as u64)
        {
            w.plane.faults.script(s.point, s.count, s.kind);
        }
        let injected_before = w.plane.faults.injected;
        // Chaos knob: a process restart at the start of every k-th tick.
        // Silent (no telemetry): an intact-journal recovery must replay
        // byte-identically to an uncrashed run. The restarted process
        // knows only what the journal kept, so the wake tick is
        // re-derived from the recovered schedule, recorded as of the end
        // of tick `tick - 1`. With no schedule, or a reco caught
        // mid-flight and re-parked (which invalidates it), the pass runs
        // this tick — over-waking is a no-op, under-waking would diverge
        // from dense.
        if let Some(k) = self.config.crash_every_ticks {
            if k > 0 && tick > 0 && tick.is_multiple_of(k) {
                let report = w.plane.store.crash_and_recover();
                let now = w.mdb.db.clock().now();
                w.next_wake = match w.plane.store.schedule(&w.mdb.db.name) {
                    Some(s) if report.reparked.is_empty() => s
                        .next_wake_tick(now, tick as u64 - 1, interval)
                        .unwrap_or(NEVER),
                    _ => tick as u64,
                };
            }
        }
        let mut control_due =
            self.config.scheduling == SchedulingMode::Dense || tick as u64 >= w.next_wake;
        if w.plane.faults.check(FaultPoint::JournalTear).is_some() {
            let now = w.mdb.db.clock().now();
            let name = w.mdb.db.name.clone();
            w.plane.store.corrupt_journal_tail();
            w.plane.recover_store(&name, now);
            // Recovery may have reparked mid-flight recommendations,
            // invalidating the recorded wake schedule. Run the pass this
            // tick — dense would have — instead of trusting it.
            control_due = true;
        }
        w.sched.inc(if control_due {
            "scheduler.ticks_executed"
        } else {
            "scheduler.ticks_skipped"
        });
        // The TenantPanic probe fires on skipped ticks too: it is a
        // per-tick fault point, not a control-plane one.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            w.runner
                .run_slice_into(&mut w.mdb.db, &w.model, interval, &mut w.run);
            if w.plane.faults.check(FaultPoint::TenantPanic).is_some() {
                panic!("injected tenant panic");
            }
            control_due.then(|| w.plane.tick(&mut w.mdb))
        }));
        let schedule = match unwound {
            Err(payload) => {
                self.poison(w, tick, payload);
                return;
            }
            Ok(schedule) => schedule,
        };
        let Some(schedule) = schedule else {
            // Sparse skip: the schedule proves no stage has due work, so
            // the control pass would be a no-op, and the skip resets the
            // breaker exactly as a dense no-op pass would (a no-op pass
            // injects nothing).
            w.consecutive_faulted = 0;
            return;
        };
        w.next_wake = schedule
            .next_wake_tick(w.mdb.db.clock().now(), tick as u64, interval)
            .unwrap_or(NEVER);
        // Circuit breaker on consecutive faulted ticks.
        if w.plane.faults.injected > injected_before {
            w.consecutive_faulted += 1;
        } else {
            w.consecutive_faulted = 0;
        }
        if self.config.quarantine_threshold > 0
            && w.consecutive_faulted >= self.config.quarantine_threshold
        {
            w.consecutive_faulted = 0;
            w.supervision.quarantines += 1;
            w.quarantined_until = tick + 1 + self.config.quarantine_cooldown;
            w.plane.telemetry.emit(
                EventKind::TenantQuarantined,
                &w.mdb.db.name,
                format!("cool-down {} ticks", self.config.quarantine_cooldown),
                w.mdb.db.clock().now(),
            );
        }
    }

    /// End-of-run accounting for one worker: the §8.2-flavor
    /// workload-impact roll-up plus the serialized outcome.
    fn finish_tenant(&self, w: TenantWorker) -> TenantResult {
        let TenantWorker {
            name,
            mut plane,
            mdb,
            run,
            supervision,
            t_start,
            mut sched,
            ..
        } = w;
        // Plan-selection cache counters land in the driver bookkeeping
        // registry, not the canonical one: cache-on and cache-off runs
        // must stay byte-identical in everything observable, and hit
        // counts differ between them by construction.
        let pcs = mdb.db.plan_cache_stats;
        sched.add("plan_cache.hits", pcs.hits);
        sched.add("plan_cache.misses", pcs.misses);
        sched.add("plan_cache.invalidations", pcs.invalidations);
        // Journal/recovery bookkeeping follows the same rule: compaction
        // changes journal geometry (bytes, checkpoint counts) without
        // changing canonical state, so its counters live in the driver
        // registry and surface through the §8.1 journal/recovery block.
        let (recoveries, truncated, reparked) = plane.store.recovery_stats();
        sched.add("journal.recoveries", recoveries);
        sched.add("journal.truncated_frames", truncated);
        sched.add("journal.reparked", reparked);
        let cs = plane.store.checkpoint_stats();
        sched.add("journal.checkpoints_written", cs.checkpoints_written);
        sched.add("journal.frames_compacted", cs.frames_compacted);
        sched.add("journal.bytes_reclaimed", cs.bytes_reclaimed);
        sched.add("journal.fallback_recoveries", cs.fallback_recoveries);
        sched.add("journal.corrupt_frames", cs.corrupt_frames);
        sched.add("journal.bytes", plane.store.journal_bytes() as u64);
        // Workload-impact roll-up (§8.2 flavor): fixed-count CPU cost of
        // the first observation window vs the last, per query. Counts
        // are pinned to the first window so the comparison measures
        // per-execution cost, not traffic shifts. Everything lands in
        // integer counters so fleet merging stays exact.
        let t_end = mdb.db.clock().now();
        let horizon = t_end.0.saturating_sub(t_start.0);
        let window = Duration::from_hours(24).millis().min(horizon / 2);
        if window > 0 {
            let qs = mdb.db.query_store();
            let mut measured = 0u64;
            let mut improved = 0u64;
            let mut cost_first = 0.0f64;
            let mut cost_last = 0.0f64;
            for (qid, _) in qs.known_queries() {
                let first = qs
                    .query_stats(qid, t_start, Timestamp(t_start.0 + window))
                    .cpu;
                let last = qs.query_stats(qid, Timestamp(t_end.0 - window), t_end).cpu;
                if first.count == 0 || last.count == 0 {
                    continue;
                }
                measured += 1;
                let mean_first = first.sum / first.count as f64;
                let mean_last = last.sum / last.count as f64;
                cost_first += first.count as f64 * mean_first;
                cost_last += first.count as f64 * mean_last;
                if mean_last > 0.0 && mean_first / mean_last >= 2.0 {
                    improved += 1;
                }
            }
            plane.metrics.add("workload.queries_measured", measured);
            plane.metrics.add("workload.queries_improved_2x", improved);
            if measured > 0 && cost_last <= 0.5 * cost_first {
                plane.metrics.inc("workload.dbs_cpu_halved");
            }
        }
        let outcome = TenantOutcome::collect(name, &plane, &mdb, &run, supervision);
        let totals = FleetTotals {
            telemetry: plane.telemetry,
            metrics: plane.metrics,
            scheduler_metrics: sched,
            by_state: outcome.by_state.clone(),
            statements: outcome.statements,
            errors: outcome.errors,
            poisoned: outcome.status.is_poisoned() as usize,
            quarantines: outcome.quarantines,
        };
        (outcome, totals)
    }

    /// The driver kernel — the only loop that ticks a tenant: workload
    /// slice, then — when due — one control-plane pass, `ticks` times.
    /// `index` is the tenant's *global* fleet index, which seeds its
    /// random streams, its RecoId block and its auto/cohort assignments,
    /// so a shard driving tenants 3 and 11 gets, tenant for tenant, what
    /// an unsharded run over the whole fleet would. All state is owned
    /// here; nothing is shared with other tenants.
    pub(crate) fn run_tenant(&self, index: usize, tenant: Tenant, ticks: u32) -> TenantResult {
        let mut w = self.worker(index, tenant);
        for tick in 0..ticks {
            if w.done {
                break;
            }
            self.step_tenant(&mut w, tick);
        }
        self.finish_tenant(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlmini::engine::ServiceTier;
    use workload::fleet::{generate_fleet, TierMix};

    fn small_policy() -> PlanePolicy {
        PlanePolicy {
            analysis_interval: Duration::from_hours(2),
            validation_min_wait: Duration::from_hours(1),
            ..PlanePolicy::default()
        }
    }

    fn tiny_fleet(n: usize, seed: u64) -> Vec<Tenant> {
        generate_fleet(
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
    fn serial_run_produces_per_tenant_state() {
        let driver = FleetDriver::new(FleetDriverConfig {
            policy: small_policy(),
            ..FleetDriverConfig::default()
        });
        let report = driver.run(tiny_fleet(3, 11), 4, 1);
        assert_eq!(report.tenants.len(), 3);
        assert!(report.statements > 0);
        // Disjoint id blocks: each tenant's store started at its stride.
        assert_eq!(report.threads, 1);
        assert_eq!(report.ticks, 4);
    }

    #[test]
    fn parallel_matches_serial_byte_for_byte() {
        let driver = FleetDriver::new(FleetDriverConfig {
            policy: small_policy(),
            ..FleetDriverConfig::default()
        });
        let serial = driver.run(tiny_fleet(4, 77), 3, 1);
        let parallel = driver.run(tiny_fleet(4, 77), 3, 4);
        assert_eq!(serial.canonical_string(), parallel.canonical_string());
    }

    #[test]
    fn faults_are_seeded_per_tenant_not_per_thread() {
        let driver = FleetDriver::new(FleetDriverConfig {
            policy: small_policy(),
            fault_seed: Some(42),
            fault_transient_prob: 0.3,
            fault_fatal_prob: 0.05,
            ..FleetDriverConfig::default()
        });
        let serial = driver.run(tiny_fleet(4, 5), 3, 1);
        let parallel = driver.run(tiny_fleet(4, 5), 3, 3);
        assert_eq!(serial.canonical_string(), parallel.canonical_string());
    }

    #[test]
    fn cloned_fleets_replay_independently() {
        // Clones share SimClocks; the driver must detach them so a
        // fleet can be cloned, driven, and the original driven again
        // with byte-identical results (what every serial-vs-parallel
        // comparison does).
        let driver = FleetDriver::new(FleetDriverConfig {
            policy: small_policy(),
            ..FleetDriverConfig::default()
        });
        let fleet = tiny_fleet(3, 21);
        let first = driver.run(fleet.clone(), 3, 2);
        let second = driver.run(fleet, 3, 2);
        assert_eq!(first.canonical_string(), second.canonical_string());
    }

    #[test]
    fn mixed_tiers_survive_the_driver() {
        let fleet = generate_fleet(
            4,
            TierMix {
                basic: 0.5,
                standard: 0.25,
                premium: 0.25,
            },
            9,
        );
        assert!(fleet.iter().any(|t| t.tier != ServiceTier::Basic));
        let driver = FleetDriver::new(FleetDriverConfig {
            policy: small_policy(),
            ..FleetDriverConfig::default()
        });
        let report = driver.run(fleet, 2, 2);
        assert_eq!(report.tenants.len(), 4);
    }

    #[test]
    fn sparse_matches_dense_byte_for_byte() {
        let dense = FleetDriver::new(FleetDriverConfig {
            policy: small_policy(),
            scheduling: SchedulingMode::Dense,
            ..FleetDriverConfig::default()
        });
        let sparse = FleetDriver::new(FleetDriverConfig {
            policy: small_policy(),
            scheduling: SchedulingMode::Sparse,
            ..FleetDriverConfig::default()
        });
        let a = dense.run(tiny_fleet(4, 31), 12, 1);
        let b = sparse.run(tiny_fleet(4, 31), 12, 1);
        assert_eq!(a.canonical_string(), b.canonical_string());
        assert_eq!(
            a.dashboard().render(),
            b.dashboard().render(),
            "mode-independent dashboards must match"
        );
        assert!(
            b.control_ticks_skipped() > 0,
            "a 2h-analysis fleet over 12 hourly ticks must skip some passes"
        );
        assert_eq!(
            b.control_ticks_executed() + b.control_ticks_skipped(),
            4 * 12,
            "every non-quarantined tick is either executed or skipped"
        );
    }

    #[test]
    fn serial_matches_parallel_under_quarantine() {
        let driver = FleetDriver::new(FleetDriverConfig {
            policy: small_policy(),
            scheduling: SchedulingMode::Sparse,
            fault_seed: Some(9),
            fault_transient_prob: 0.2,
            fault_fatal_prob: 0.02,
            quarantine_threshold: 2,
            quarantine_cooldown: 3,
            ..FleetDriverConfig::default()
        });
        let serial = driver.run(tiny_fleet(5, 13), 10, 1);
        let parallel = driver.run(tiny_fleet(5, 13), 10, 4);
        assert_eq!(serial.canonical_string(), parallel.canonical_string());
        assert_eq!(
            serial.control_ticks_executed(),
            parallel.control_ticks_executed(),
            "serial and pooled runs pick the same control ticks"
        );
    }
}
