//! The only file of the benchmark that names items of the crates under
//! test. Everything else works on the plain data defined here and in
//! `presets.rs`, so the list of public items the benchmark depends on
//! (see `README.md`) can be read off this file's `use` lines.

use crate::presets::{Fleet, TenantShape, Tier};
use autoindex::validator::ChangeKind;
use controlplane::{
    ControlPlane, DbSettings, EventKind, FleetDriver, FleetDriverConfig, HydrationMode, ManagedDb,
    MetricsRegistry, PlanePolicy, RecommenderPolicy, RegionConfig, RegionCoordinator,
    ServerSettings, ShardConcurrency, StateStore, Telemetry,
};
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::{Database, ServiceTier};
use sqlmini::parser::parse_template;
use sqlmini::schema::{ColumnId, IndexDef};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use workload::fleet::{generate_tenant, FleetSpec, Tenant, TenantConfig, UserIndexPolicy};
use workload::model::{TemplateKind, WorkloadModel};
use workload::runner::{RunSummary, WorkloadRunner};

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

fn tenant_config(name: String, seed: u64, shape: &TenantShape) -> TenantConfig {
    let tier = match shape.tier {
        Tier::Basic => ServiceTier::Basic,
        Tier::Standard => ServiceTier::Standard,
        Tier::Premium => ServiceTier::Premium,
    };
    let mut cfg = TenantConfig::new(name, seed, tier);
    if let Some((lo, hi)) = shape.tables {
        cfg.schema.min_tables = lo;
        cfg.schema.max_tables = hi;
    }
    cfg.schema.min_rows = shape.rows.0;
    cfg.schema.max_rows = shape.rows.1;
    cfg.workload.base_rate_per_hour = shape.rate_per_hour;
    cfg.workload.write_fraction = shape.write_fraction;
    if let Some(n) = shape.reads_per_table {
        cfg.workload.reads_per_table = n;
    }
    if let Some(sigma) = shape.cpu_noise_sigma {
        cfg.db.cpu_noise_sigma = sigma;
    }
    if shape.idle {
        cfg.workload.with_joins = false;
        cfg.workload.with_report = false;
        cfg.user_indexes = UserIndexPolicy {
            n_useful: 0,
            n_duplicate: 0,
            n_unused: 0,
            hint_prob: 0.0,
        };
    }
    cfg
}

impl FleetSpec for Fleet {
    fn len(&self) -> usize {
        self.n
    }

    fn hydrate(&self, index: usize) -> Tenant {
        let spec = self.tenant(index);
        let mut cfg = tenant_config(spec.name, spec.shape_seed, &spec.shape);
        cfg.db.seed = spec.stream_seed;
        let mut tenant = generate_tenant(&cfg);
        tenant.runner = WorkloadRunner::new(spec.stream_seed);
        if spec.shape.idle {
            tenant.model.templates.clear();
        }
        tenant
    }
}

/// A hydrated tenant, opaque outside this file.
pub struct Hydrated(Tenant);

pub fn hydrate(fleet: &Fleet, index: usize) -> Hydrated {
    Hydrated(fleet.hydrate(index))
}

impl Hydrated {
    /// What the purity check compares: storage bytes, template count,
    /// index count.
    pub fn fingerprint(&self) -> (u64, usize, usize) {
        (
            self.0.db.storage_bytes(),
            self.0.model.templates.len(),
            self.0.db.catalog().n_indexes(),
        )
    }
}

// ---------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recommender {
    ByTier,
    DtaOnly,
}

/// The policy fields a workload sets; everything else stays at the
/// library's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    pub recommender: Recommender,
    pub analysis_hours: u64,
    /// `None` keeps the default validation wait.
    pub validation_min_wait_hours: Option<u64>,
}

fn plane_policy(p: &Policy) -> PlanePolicy {
    let mut policy = PlanePolicy {
        recommender: match p.recommender {
            Recommender::ByTier => RecommenderPolicy::ByTier,
            Recommender::DtaOnly => RecommenderPolicy::DtaOnly,
        },
        analysis_interval: Duration::from_hours(p.analysis_hours),
        ..PlanePolicy::default()
    };
    if let Some(h) = p.validation_min_wait_hours {
        policy.validation_min_wait = Duration::from_hours(h);
    }
    policy
}

// ---------------------------------------------------------------------
// End-to-end drives
// ---------------------------------------------------------------------

/// What one end-to-end drive reports back, reduced to plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub tenants: usize,
    pub digest: u64,
    pub statements: u64,
    pub errors: u64,
    pub poisoned: usize,
    pub by_state: BTreeMap<String, usize>,
    pub recoveries: u64,
    pub passes_executed: u64,
    pub passes_skipped: u64,
    /// High-water mark of resident tenants (region drives only).
    pub peak_hydrated: Option<usize>,
}

/// Materialize the whole fleet (the resident-fleet workloads' set-up).
pub fn materialize(fleet: &Fleet) -> Vec<Hydrated> {
    (0..fleet.n).map(|i| hydrate(fleet, i)).collect()
}

/// `FleetDriver::run` over a resident fleet.
pub fn drive_fleet(
    fleet: Vec<Hydrated>,
    policy: &Policy,
    ticks: u32,
    threads: usize,
    crash_every_tick: bool,
) -> Outcome {
    let driver = FleetDriver::new(FleetDriverConfig {
        policy: plane_policy(policy),
        crash_every_ticks: crash_every_tick.then_some(1),
        ..FleetDriverConfig::default()
    });
    let tenants = fleet.into_iter().map(|h| h.0).collect();
    let report = driver.run(tenants, ticks, threads);
    Outcome {
        tenants: report.tenants.len(),
        digest: report.canonical_digest(),
        statements: report.statements,
        errors: report.errors,
        poisoned: report.poisoned,
        passes_executed: report.control_ticks_executed(),
        passes_skipped: report.control_ticks_skipped(),
        recoveries: report.scheduler_metrics.counter("journal.recoveries"),
        by_state: report.by_state,
        peak_hydrated: None,
    }
}

/// `RegionCoordinator::run` over a lazily hydrated fleet: sequential
/// shards, one thread per shard.
pub fn drive_region(
    fleet: &Fleet,
    policy: &Policy,
    ticks: u32,
    shards: usize,
    retain_outcomes: bool,
) -> Outcome {
    let coordinator = RegionCoordinator::new(RegionConfig {
        driver: FleetDriverConfig {
            policy: plane_policy(policy),
            ..FleetDriverConfig::default()
        },
        shards,
        threads_per_shard: 1,
        shard_concurrency: ShardConcurrency::Sequential,
        hydration: HydrationMode::Lazy,
        retain_outcomes,
        ..RegionConfig::default()
    });
    let report = coordinator.run(fleet, ticks);
    Outcome {
        tenants: report.tenants,
        digest: report.digest,
        statements: report.statements,
        errors: report.errors,
        poisoned: report.poisoned,
        passes_executed: report.control_ticks_executed(),
        passes_skipped: report.control_ticks_skipped(),
        recoveries: report.scheduler_metrics.counter("journal.recoveries"),
        by_state: report.by_state,
        peak_hydrated: Some(report.peak_hydrated),
    }
}

// ---------------------------------------------------------------------
// The layered drive: one tenant through the layers' public functions
// ---------------------------------------------------------------------

const TICK: Duration = Duration(3_600_000);
/// The fleet driver's default `id_stride`.
const ID_STRIDE: u64 = 1_000_000;

/// One tenant wired the way the fleet driver's worker wires it, with
/// each layer call exposed as a method so the caller can put a span
/// around it.
pub struct LayeredTenant {
    plane: ControlPlane,
    mdb: ManagedDb,
    model: WorkloadModel,
    runner: WorkloadRunner,
    run: RunSummary,
}

impl LayeredTenant {
    /// `Database::detach_clock` → `ManagedDb::new`, plus a control plane
    /// whose store allocates ids from the tenant's block.
    pub fn new(tenant: Hydrated, index: usize, policy: &Policy) -> LayeredTenant {
        let Tenant {
            mut db,
            model,
            runner,
            ..
        } = tenant.0;
        db.detach_clock();
        let mut plane = ControlPlane::new(plane_policy(policy));
        plane.store = StateStore::with_id_base(index as u64 * ID_STRIDE);
        LayeredTenant {
            plane,
            mdb: ManagedDb::new(db, DbSettings::all_on(), ServerSettings::default()),
            model,
            runner,
            run: RunSummary::default(),
        }
    }

    /// `WorkloadRunner::run_slice_into` for one hourly tick. Returns the
    /// number of statements the slice attempted.
    pub fn slice(&mut self) -> u64 {
        let before = self.run.statements + self.run.errors;
        self.runner
            .run_slice_into(&mut self.mdb.db, &self.model, TICK, &mut self.run);
        self.run.statements + self.run.errors - before
    }

    /// `ControlPlane::tick`. Returns the journal writes the pass made.
    pub fn tick(&mut self) -> u64 {
        let before = self.plane.store.journal_writes();
        black_box(self.plane.tick(&mut self.mdb));
        self.plane.store.journal_writes() - before
    }

    /// `StateStore::recovered_from` over a copy of the current journal:
    /// the recovered store and the frames recovery read.
    fn recovered(&self) -> (StateStore, usize) {
        let (store, report) = StateStore::recovered_from(self.plane.store.journal_lines().to_vec());
        (store, report.frame_reads)
    }

    /// Recover, and let the recovered store replace the live one, as a
    /// process restart would. Returns the frames recovery read.
    pub fn recover(&mut self) -> usize {
        let (store, frames) = self.recovered();
        self.plane.store = store;
        frames
    }

    /// Recover and drop the result: a probe that leaves the tenant
    /// untouched.
    pub fn probe_recover(&self) -> usize {
        let (store, frames) = self.recovered();
        black_box(store);
        frames
    }

    pub fn statements(&self) -> u64 {
        self.run.statements
    }

    pub fn errors(&self) -> u64 {
        self.run.errors
    }

    pub fn journal_writes(&self) -> u64 {
        self.plane.store.journal_writes()
    }

    pub fn journal_bytes(&self) -> u64 {
        self.plane.store.journal_bytes() as u64
    }

    pub fn plan_cache(&self) -> (u64, u64, u64) {
        let s = self.mdb.db.plan_cache_stats;
        (s.hits, s.misses, s.invalidations)
    }

    pub fn is_idle(&self) -> bool {
        self.model.templates.is_empty()
    }
}

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

/// The statement buckets of the engine metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bucket {
    Point,
    Scan,
    Join,
    Write,
}

impl Bucket {
    pub const ALL: [Bucket; 4] = [Bucket::Point, Bucket::Scan, Bucket::Join, Bucket::Write];

    pub fn name(self) -> &'static str {
        match self {
            Bucket::Point => "point",
            Bucket::Scan => "scan",
            Bucket::Join => "join",
            Bucket::Write => "write",
        }
    }
}

fn bucket_of(kind: TemplateKind) -> Bucket {
    match kind {
        TemplateKind::PointLookup
        | TemplateKind::SecondaryFilter
        | TemplateKind::MultiPredicate => Bucket::Point,
        TemplateKind::RangeScan | TemplateKind::TopN | TemplateKind::GroupAgg => Bucket::Scan,
        TemplateKind::JoinQuery | TemplateKind::Report => Bucket::Join,
        TemplateKind::InsertRow
        | TemplateKind::UpdateRow
        | TemplateKind::DeleteRow
        | TemplateKind::BulkLoad => Bucket::Write,
    }
}

/// Record `hours` of tenant `index`'s statements with `run_traced`
/// (untimed), hydrate the tenant again, and time each
/// `Database::execute` of the replay. Returns `(bucket, nanoseconds)`
/// per statement.
pub fn statement_probe(fleet: &Fleet, index: usize, hours: u64) -> Vec<(Bucket, u64)> {
    let mut recorder = fleet.hydrate(index);
    recorder.db.detach_clock();
    let (_, trace) = recorder.runner.run_traced(
        &mut recorder.db,
        &recorder.model,
        Duration::from_hours(hours),
    );
    drop(recorder);
    let mut replica = fleet.hydrate(index);
    replica.db.detach_clock();
    let mut samples = Vec::with_capacity(trace.events.len());
    for event in &trace.events {
        let spec = &replica.model.templates[event.template_index];
        replica.db.clock().advance_to(event.at);
        let t0 = Instant::now();
        let out = replica.db.execute(&spec.template, &event.params);
        let ns = t0.elapsed().as_nanos() as u64;
        if black_box(out).is_ok() {
            samples.push((bucket_of(spec.kind), ns));
        }
    }
    samples
}

/// Timings of the recommender-side entry points, in nanoseconds, on a
/// detached clone of one tenant's database.
#[derive(Debug, Clone, Default)]
pub struct RecommenderSample {
    pub mi_recommend_ns: u64,
    pub dta_tune_ns: u64,
    pub whatif_issued: u64,
    pub whatif_saved: u64,
    pub validate_ns: u64,
    pub drops_recommend_ns: u64,
    pub what_if_cost_ns: Vec<u64>,
    pub create_index_ns: u64,
    pub parse_template_ns: Vec<u64>,
}

/// Drive tenant `index` for `ticks` ticks (slice then control pass),
/// clone its database with a detached clock, and time the recommender
/// entry points on the clone so the tenant's own run is not perturbed.
pub fn recommender_probe(
    fleet: &Fleet,
    index: usize,
    policy: &Policy,
    ticks: u32,
) -> RecommenderSample {
    let mut tenant = LayeredTenant::new(hydrate(fleet, index), index, policy);
    for _ in 0..ticks {
        tenant.slice();
        tenant.tick();
    }
    let plane_policy = &tenant.plane.policy;
    let mut db: Database = tenant.mdb.db.clone();
    db.detach_clock();
    let mut sample = RecommenderSample::default();

    let t0 = Instant::now();
    black_box(autoindex::mi::recommend(
        &db,
        &tenant.mdb.mi_store,
        &plane_policy.mi,
        &tenant.plane.classifier,
    ));
    sample.mi_recommend_ns = t0.elapsed().as_nanos() as u64;

    let t0 = Instant::now();
    black_box(autoindex::drops::recommend_drops(
        &db,
        &plane_policy.drops,
        tenant.mdb.observed_since,
    ));
    sample.drops_recommend_ns = t0.elapsed().as_nanos() as u64;

    // Validate the first index of the catalog over the two halves of
    // the run: the same call the validate stage makes.
    let now = db.clock().now();
    let mid = Timestamp(now.millis() / 2);
    let index_name = db.catalog().indexes().next().map(|(_, d)| d.name.clone());
    if let Some(name) = index_name {
        let t0 = Instant::now();
        black_box(autoindex::validator::validate(
            &db,
            &name,
            ChangeKind::Created,
            (Timestamp(0), mid),
            (mid, now),
            &plane_policy.validator,
        ));
        sample.validate_ns = t0.elapsed().as_nanos() as u64;
    }

    // What-if costing of one hour of the tenant's own statements.
    let mut runner = tenant.runner.clone();
    let mut scratch = db.clone();
    scratch.detach_clock();
    let (_, trace) = runner.run_traced(&mut scratch, &tenant.model, TICK);
    drop(scratch);
    for event in trace.events.iter().take(256) {
        let template = &tenant.model.templates[event.template_index].template;
        let t0 = Instant::now();
        black_box(db.what_if().cost(template, &event.params));
        sample.what_if_cost_ns.push(t0.elapsed().as_nanos() as u64);
    }

    let t0 = Instant::now();
    let report = autoindex::dta::tune(&mut db, &plane_policy.dta);
    sample.dta_tune_ns = t0.elapsed().as_nanos() as u64;
    sample.whatif_issued = report.what_if.issued;
    sample.whatif_saved = report.what_if.saved();

    // Parse statements written against the first table, then build an
    // index on its second column.
    let (table, def) = db
        .catalog()
        .tables()
        .next()
        .map(|(id, def)| (id, def.clone()))
        .expect("every tenant has a table");
    let (c0, c1) = (&def.columns[0].name, &def.columns[1].name);
    let statements = [
        format!("SELECT {c0}, {c1} FROM {} WHERE {c1} = @p0", def.name),
        format!("UPDATE {} SET {c1} = @p1 WHERE {c0} = @p0", def.name),
        format!("DELETE FROM {} WHERE {c0} = @p0", def.name),
    ];
    for _ in 0..32 {
        for sql in &statements {
            let t0 = Instant::now();
            let parsed = parse_template(db.catalog(), sql);
            sample
                .parse_template_ns
                .push(t0.elapsed().as_nanos() as u64);
            black_box(parsed).expect("probe statement parses");
        }
    }
    let probe_index = IndexDef::new("bench_probe_ix", table, vec![ColumnId(1)], vec![]);
    let t0 = Instant::now();
    let built = db.create_index(probe_index);
    sample.create_index_ns = t0.elapsed().as_nanos() as u64;
    black_box(built).expect("probe index builds");
    sample
}

/// Nanoseconds per call of `MetricsRegistry::inc(&str)` and of
/// `Telemetry::emit`, over `calls` calls each, cycling through the
/// counter names a control pass touches.
pub fn sink_probe(calls: u64) -> (f64, f64) {
    const NAMES: [&str; 8] = [
        "fleet.quarantined_ticks",
        "validate.nodata",
        "recommend.created",
        "implement.succeeded",
        "implement.failed_transient",
        "validate.improved",
        "validate.regressed",
        "expire.expired",
    ];
    let mut metrics = MetricsRegistry::new();
    let t0 = Instant::now();
    for i in 0..calls {
        metrics.inc(black_box(NAMES[(i % 8) as usize]));
    }
    let inc_ns = t0.elapsed().as_nanos() as f64 / calls as f64;
    black_box(&metrics);

    // A sink keeps at most 100,000 raw events and shifts its tail on
    // every emit beyond that, which no tenant's sink reaches; start a
    // fresh sink before the cap.
    const PER_SINK: u64 = 100_000;
    let mut emit_total_ns = 0u128;
    let mut emitted = 0u64;
    while emitted < calls {
        let batch = PER_SINK.min(calls - emitted);
        let mut telemetry = Telemetry::new();
        let t0 = Instant::now();
        for i in 0..batch {
            telemetry.emit(
                EventKind::ValidationNoData,
                black_box("bf000001"),
                "",
                Timestamp(i),
            );
        }
        emit_total_ns += t0.elapsed().as_nanos();
        black_box(&telemetry);
        emitted += batch;
    }
    let emit_ns = emit_total_ns as f64 / calls as f64;
    (inc_ns, emit_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::Mix;

    #[test]
    fn tenants_are_pure_in_seed_and_index() {
        for mix in [
            Mix::MostlyIdle { one_in: 3 },
            Mix::Tiered,
            Mix::WriteHeavy,
            Mix::SlowBasic,
        ] {
            let fleet = Fleet { n: 6, mix, seed: 7 };
            let in_order: Vec<_> = (0..fleet.n)
                .map(|i| hydrate(&fleet, i).fingerprint())
                .collect();
            for i in [4, 0, 5, 2] {
                assert_eq!(hydrate(&fleet, i).fingerprint(), in_order[i], "{mix:?} {i}");
            }
        }
    }

    #[test]
    fn idle_tenants_have_nothing_to_run() {
        let fleet = Fleet {
            n: 20,
            mix: Mix::MostlyIdle { one_in: 20 },
            seed: 42,
        };
        let idle = (0..fleet.n)
            .filter(|&i| fleet.tenant(i).shape.idle)
            .map(|i| hydrate(&fleet, i).fingerprint())
            .collect::<Vec<_>>();
        assert_eq!(idle.len(), 19);
        assert!(idle
            .iter()
            .all(|&(_, templates, indexes)| templates == 0 && indexes == 0));
    }
}
