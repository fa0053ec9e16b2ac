//! The database engine facade.
//!
//! A [`Database`] is one tenant database: catalog, heaps, secondary
//! indexes, statistics, plan cache, Query Store, DMVs. It exposes:
//!
//! * `execute` — optimize (with plan caching and parameter sniffing),
//!   execute, apply the concurrency-noise model, and record Query Store /
//!   DMV telemetry; `query` is the same and also returns the rows;
//! * the **what-if API** ([`WhatIfSession`]) — cost statements under
//!   hypothetical index configurations without materializing anything
//!   (the AutoAdmin interface of \[11\] that DTA is built on);
//! * online **DDL** — `create_index` (with a build-cost/duration model and
//!   resource governance) and `drop_index`;
//! * failure hooks — `restart()` resets the missing-index DMV and plan
//!   cache exactly as a failover does, which is why the MI recommender
//!   snapshots DMVs;
//! * `fork()` — the storage-level snapshot a B-instance starts from (§7.1).

use crate::catalog::{Catalog, CatalogError};
use crate::clock::{Duration, SimClock, Timestamp};
use crate::column::Column;
use crate::dmv::{IndexUsageDmv, MissingIndexDmv};
use crate::exec::{execute_dml, execute_select, ActualMetrics, ExecContext, ExecError};
use crate::heap::Heap;
use crate::index::SecondaryIndex;
use crate::optimizer::{optimize, IndexGeom, MissingIndexObservation, PlannerEnv};
use crate::plan::{Access, IndexRef, JoinStrategy, Plan, PlanEstimates, PlanId};
use crate::query::{QueryId, QueryTemplate, Statement};
use crate::querystore::QueryStore;
use crate::schema::{ColumnId, IndexDef, IndexId, TableDef, TableId};
use crate::stats::TableStats;
use crate::types::{Row, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Azure SQL Database service tier — governs the resources available to a
/// database (and hence execution durations and tuning budgets) \[28\].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServiceTier {
    /// Fraction of a core; tiny Query Store; MI-only tuning territory.
    Basic,
    /// Mid-range.
    #[default]
    Standard,
    /// Business-critical: more cores, more tuning budget, complex apps.
    Premium,
}

impl ServiceTier {
    /// Effective CPU cores; wall-clock duration = cpu_time / cores.
    fn cores(self) -> f64 {
        match self {
            ServiceTier::Basic => 0.5,
            ServiceTier::Standard => 2.0,
            ServiceTier::Premium => 8.0,
        }
    }

    /// Index build rate in bytes of index produced per simulated second.
    fn index_build_rate(self) -> f64 {
        match self {
            ServiceTier::Basic => 2.0e6,
            ServiceTier::Standard => 10.0e6,
            ServiceTier::Premium => 50.0e6,
        }
    }
}

/// Sampling fraction for statistics rebuilds of tables with 5,000 rows or
/// more; smaller tables are read in full.
const STATS_SAMPLE_FRAC: f64 = 0.1;

/// Query Store aggregation interval (hourly, as the service runs it, §6).
const QUERY_STORE_INTERVAL: Duration = Duration::from_hours(1);

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    pub tier: ServiceTier,
    /// Seed for the engine's noise model.
    pub seed: u64,
    /// Lognormal sigma applied to CPU time (logical metrics: small).
    pub cpu_noise_sigma: f64,
    /// Lognormal sigma applied to duration (physical metric: large), on
    /// top of CPU noise — the paper's reason to validate on logical
    /// metrics (§6).
    pub duration_noise_sigma: f64,
    /// Whether statistics auto-update when stale (disabling it makes the
    /// estimate/actual gap wider — an ablation knob).
    pub auto_update_stats: bool,
    /// Whether compiled plans are memoized across executions (keyed by
    /// query id + catalog-epoch fingerprint). Disabling it recompiles
    /// every statement — the differential-test oracle, which must be
    /// byte-identical to the cached mode in everything but speed.
    pub plan_cache: bool,
}

impl Default for DbConfig {
    fn default() -> DbConfig {
        DbConfig {
            tier: ServiceTier::Standard,
            seed: 0,
            cpu_noise_sigma: 0.05,
            duration_noise_sigma: 0.35,
            auto_update_stats: true,
            plan_cache: true,
        }
    }
}

/// Errors from engine operations.
#[derive(Debug)]
pub enum EngineError {
    Catalog(CatalogError),
    Exec(ExecError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Catalog(e) => write!(f, "catalog: {e}"),
            EngineError::Exec(e) => write!(f, "exec: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CatalogError> for EngineError {
    fn from(e: CatalogError) -> Self {
        EngineError::Catalog(e)
    }
}

impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        EngineError::Exec(e)
    }
}

/// Outcome of one statement execution.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    pub query_id: QueryId,
    pub plan_id: PlanId,
    /// Names of indexes the executed plan referenced.
    pub referenced_indexes: std::sync::Arc<Vec<String>>,
    pub metrics: ActualMetrics,
    /// Wall-clock duration in microseconds (CPU / cores × noise).
    pub duration_us: f64,
    /// The optimizer's estimates for the executed plan.
    pub estimates: PlanEstimates,
}

/// Report of a completed index build.
#[derive(Debug, Clone)]
pub struct IndexBuildReport {
    pub index_size_bytes: u64,
    /// Transaction log generated (≈ index size) — the log-pressure
    /// phenomenon of §8.3.
    pub log_bytes: u64,
    pub build_duration: Duration,
}

/// Everything the engine derives from one compilation, interned behind an
/// `Arc` so cache hits stop re-allocating per execution. All fields are
/// pure functions of `(statement, config fingerprint)`: the pinned
/// parameter binding, the geometry snapshot, and the catalog are all
/// fixed for the lifetime of the fingerprint.
#[derive(Debug)]
struct CachedPlan {
    plan: Plan,
    /// Missing-index observations made when the plan was compiled; they
    /// are re-recorded into the MI DMV on *every* execution (matching the
    /// DMV's per-execution `user_seeks` semantics).
    missing: Vec<MissingIndexObservation>,
    /// Tables whose catalog epoch governs this plan's validity.
    tables: Vec<TableId>,
    /// Catalog-epoch fingerprint over `tables` at compile time.
    fingerprint: u64,
    /// Query Store references: plan-referenced indexes plus, for writes,
    /// the maintained-index set. `Arc`'d so per-execution outcomes share
    /// the interned list instead of cloning the strings each tick.
    refs: std::sync::Arc<Vec<String>>,
    /// Plan identity (for writes: folded with the maintenance set).
    plan_id: PlanId,
    estimates: PlanEstimates,
    /// Every index on the statement's primary table (write maintenance
    /// accounting for the usage DMV).
    maintained: Vec<IndexId>,
}

/// Plan-cache effectiveness counters. Deliberately *not* part of any
/// canonical/deterministic surface: cached and uncached runs must agree
/// everywhere else, while these (like `optimizer_calls`) differ by design.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanCacheStats {
    /// Executions served by a fingerprint-valid cached plan.
    pub hits: u64,
    /// Compilations because no entry existed for the query id.
    pub misses: u64,
    /// Compilations because the entry's fingerprint was stale.
    pub invalidations: u64,
}

/// Per-table snapshot of the physical geometry the planner sees. Captured
/// at every catalog-epoch bump so compilation is a pure function of the
/// epoch — live heap/index sizes drift with every write, which would make
/// an eager recompile (cache-off) diverge from a memoized plan (cache-on).
#[derive(Debug, Clone)]
struct PlanningGeom {
    heap_pages: f64,
    indexes: Vec<IndexGeom>,
}

/// One tenant database.
#[derive(Debug, Clone)]
pub struct Database {
    pub name: String,
    pub config: DbConfig,
    clock: SimClock,
    catalog: Catalog,
    heaps: BTreeMap<TableId, Heap>,
    indexes: BTreeMap<IndexId, SecondaryIndex>,
    stats: BTreeMap<TableId, TableStats>,
    query_store: QueryStore,
    mi_dmv: MissingIndexDmv,
    usage_dmv: IndexUsageDmv,
    plan_cache: BTreeMap<QueryId, std::sync::Arc<CachedPlan>>,
    /// Global catalog-epoch counter; per-table epochs take their values
    /// from it so any DDL/statistics change is totally ordered.
    config_version: u64,
    /// Per-table catalog epoch: bumped on index create/drop, statistics
    /// refresh, and schema change for that table.
    table_epochs: BTreeMap<TableId, u64>,
    /// Planner geometry snapshots, refreshed at each epoch bump.
    geom: BTreeMap<TableId, PlanningGeom>,
    /// First parameter binding ever seen per query id (parameter
    /// sniffing, pinned so recompiles are deterministic). Cleared on
    /// restart, exactly like the plan cache.
    pinned_params: BTreeMap<QueryId, Vec<Value>>,
    /// Test hook: when set, epoch bumps stop invalidating cached plans
    /// (geometry snapshots still refresh), deliberately leaving the cache
    /// stale — proves the differential tests can detect divergence.
    epochs_frozen: bool,
    /// Plan-cache effectiveness counters (non-canonical surface).
    pub plan_cache_stats: PlanCacheStats,
    rng: StdRng,
    /// Count of optimizer invocations (what-if overhead accounting).
    pub optimizer_calls: u64,
    /// Total CPU microseconds executed (all statements, ever).
    pub total_cpu_us: f64,
}

impl Database {
    pub fn new(name: impl Into<String>, config: DbConfig, clock: SimClock) -> Database {
        let rng = StdRng::seed_from_u64(config.seed);
        let query_store = QueryStore::new(QUERY_STORE_INTERVAL);
        Database {
            name: name.into(),
            config,
            clock,
            catalog: Catalog::new(),
            heaps: BTreeMap::new(),
            indexes: BTreeMap::new(),
            stats: BTreeMap::new(),
            query_store,
            mi_dmv: MissingIndexDmv::new(),
            usage_dmv: IndexUsageDmv::new(),
            plan_cache: BTreeMap::new(),
            config_version: 0,
            table_epochs: BTreeMap::new(),
            geom: BTreeMap::new(),
            pinned_params: BTreeMap::new(),
            epochs_frozen: false,
            plan_cache_stats: PlanCacheStats::default(),
            rng,
            optimizer_calls: 0,
            total_cpu_us: 0.0,
        }
    }

    // ------------------------------------------------------------------
    // Schema and data
    // ------------------------------------------------------------------

    /// Create a table.
    pub fn create_table(&mut self, def: TableDef) -> Result<TableId, EngineError> {
        let heap = Heap::new(&def.types(), def.avg_row_width());
        let id = self.catalog.add_table(def)?;
        self.stats.insert(id, TableStats::build_full(&heap));
        self.heaps.insert(id, heap);
        self.bump_table(id);
        Ok(id)
    }

    /// Bulk-load rows without statement accounting (initial population):
    /// the rows, by column, through [`load_columns`](Self::load_columns).
    /// Each value is made to fit its column as a statement's would be
    /// ([`ValueType::fit`](crate::types::ValueType::fit)).
    ///
    /// # Panics
    /// If a row does not have one value per column, or a value does not
    /// fit its column: the loader is the program's own, and a misfit is
    /// its bug.
    pub fn load_rows(&mut self, table: TableId, rows: impl IntoIterator<Item = Row>) {
        let def = self.catalog.table(table).expect("table exists");
        let mut columns: Vec<Column> = (def.columns.iter())
            .map(|c| Column::of_type(c.ty, 0))
            .collect();
        for row in rows {
            assert_eq!(
                row.len(),
                columns.len(),
                "row width differs from the table's"
            );
            for ((col, c), v) in columns.iter_mut().zip(&def.columns).zip(row) {
                let v = c.ty.fit(v).unwrap_or_else(|v| {
                    panic!("{v:?} does not fit {}.{} ({})", def.name, c.name, c.ty)
                });
                col.push(v);
            }
        }
        self.load_columns(table, columns);
    }

    /// Bulk-load rows given by column (slot `i` of `columns[c]` is column
    /// `c` of the `i`-th row) without statement accounting: the one path
    /// that fills a heap and the indexes already on it in bulk. The rows
    /// take the ids that many inserts would; a table that never held a
    /// row keeps the columns as they are, so nothing is copied.
    ///
    /// # Panics
    /// If a column is not of its table column's declared type.
    pub fn load_columns(&mut self, table: TableId, columns: Vec<Column>) {
        let def = self.catalog.table(table).expect("table exists");
        for (col, c) in columns.iter().zip(&def.columns) {
            let (t, n) = (&def.name, &c.name);
            assert_eq!(col.ty(), c.ty, "a {} column loaded into {t}.{n}", col.ty());
        }
        let heap = self.heaps.get_mut(&table).expect("table exists");
        let ids = heap.append_columns(columns);
        for (id, _) in self.catalog.indexes_on(table) {
            if let Some(ix) = self.indexes.get_mut(&id) {
                for &rid in &ids {
                    ix.insert_row(rid, &heap.row(rid).expect("a loaded row is live"));
                }
            }
        }
        // Bulk loads move the table's physical geometry wholesale; refresh
        // the planning snapshot so compiles see the populated table.
        self.bump_table(table);
    }

    /// Rebuild statistics for a table (full below 5,000 rows, sampled at
    /// or above).
    pub fn rebuild_stats(&mut self, table: TableId) {
        let heap = &self.heaps[&table];
        let stats = if heap.len() < 5_000 {
            TableStats::build_full(heap)
        } else {
            TableStats::build_sampled(heap, STATS_SAMPLE_FRAC, self.config.seed ^ table.0 as u64)
        };
        self.stats.insert(table, stats);
        self.bump_table(table);
    }

    /// Rebuild statistics for every table.
    pub fn rebuild_all_stats(&mut self) {
        let tables: Vec<TableId> = self.catalog.tables().map(|(t, _)| t).collect();
        for t in tables {
            self.rebuild_stats(t);
        }
    }

    /// Bump every table's catalog epoch (coarse invalidation for callers
    /// without table context, e.g. restart).
    fn bump_config(&mut self) {
        let tables: Vec<TableId> = self.catalog.tables().map(|(t, _)| t).collect();
        for t in tables {
            self.bump_table(t);
        }
    }

    /// Bump one table's catalog epoch and refresh its planning-geometry
    /// snapshot. Called on index create/drop, statistics refresh, and
    /// schema change — the three invalidation sources of the plan cache.
    fn bump_table(&mut self, t: TableId) {
        let heap_pages = self
            .heaps
            .get(&t)
            .map(|h| h.page_count() as f64)
            .unwrap_or(1.0);
        let indexes = self.index_geoms(t);
        self.geom.insert(
            t,
            PlanningGeom {
                heap_pages,
                indexes,
            },
        );
        if !self.epochs_frozen {
            self.config_version += 1;
            self.table_epochs.insert(t, self.config_version);
        }
    }

    /// Current catalog epoch of one table (0 until first bumped).
    fn table_epoch(&self, t: TableId) -> u64 {
        self.table_epochs.get(&t).copied().unwrap_or(0)
    }

    /// Fingerprint of the catalog epochs of `tables` — the per-tenant
    /// generalization of [`WhatIfSession::config_fingerprint`]: two
    /// compiles of the same statement under equal fingerprints are
    /// bit-identical, which is what licenses the execution plan cache.
    pub fn config_fingerprint(&self, tables: &[TableId]) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for t in tables {
            t.hash(&mut h);
            self.table_epoch(*t).hash(&mut h);
        }
        h.finish()
    }

    /// Test hook: freeze (or thaw) catalog epochs, leaving cached plans
    /// deliberately stale across DDL. Exists so the differential tests
    /// can prove they detect a broken invalidation story.
    #[doc(hidden)]
    pub fn debug_freeze_epochs(&mut self, frozen: bool) {
        self.epochs_frozen = frozen;
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Swap the clock for a detached copy at the same instant. A cloned
    /// database shares its ancestor's clock; detaching gives this
    /// replica a private time stream, so advancing it no longer moves
    /// time for the ancestor (or any sibling clone).
    pub fn detach_clock(&mut self) {
        self.clock = self.clock.detached();
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn query_store(&self) -> &QueryStore {
        &self.query_store
    }

    pub fn mi_dmv(&self) -> &MissingIndexDmv {
        &self.mi_dmv
    }

    pub fn usage_dmv(&self) -> &IndexUsageDmv {
        &self.usage_dmv
    }

    pub fn table_rows(&self, t: TableId) -> u64 {
        self.heaps.get(&t).map(|h| h.len() as u64).unwrap_or(0)
    }

    #[cfg(test)]
    fn table_stats(&self, t: TableId) -> Option<&TableStats> {
        self.stats.get(&t)
    }

    /// The heap of table `t`, read-only. With
    /// [`secondary_index`](Self::secondary_index) it lets a test rebuild
    /// an index from the heap and compare it with the maintained one.
    pub fn heap(&self, t: TableId) -> Option<&Heap> {
        self.heaps.get(&t)
    }

    /// The materialized secondary index `ix`, read-only.
    pub fn secondary_index(&self, ix: IndexId) -> Option<&SecondaryIndex> {
        self.indexes.get(&ix)
    }

    pub fn index_size_bytes(&self, ix: IndexId) -> u64 {
        self.indexes.get(&ix).map(|i| i.size_bytes()).unwrap_or(0)
    }

    /// Total storage (heaps + indexes) in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.heaps.values().map(Heap::size_bytes).sum::<u64>()
            + self
                .indexes
                .values()
                .map(SecondaryIndex::size_bytes)
                .sum::<u64>()
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Execute a statement template with a parameter binding, for its
    /// effects: the data it writes and the metrics it records (Query
    /// Store, DMVs, the returned outcome). No result set is built — the
    /// workload runner and the control plane never read one.
    pub fn execute(
        &mut self,
        template: &QueryTemplate,
        params: &[Value],
    ) -> Result<ExecOutcome, EngineError> {
        self.execute_into(template, params, None)
    }

    /// [`execute`](Self::execute), also returning a SELECT's projected
    /// rows (empty for DML). Same statement kernel, same metrics.
    pub fn query(
        &mut self,
        template: &QueryTemplate,
        params: &[Value],
    ) -> Result<(ExecOutcome, Vec<Row>), EngineError> {
        let mut rows = Vec::new();
        let outcome = self.execute_into(template, params, Some(&mut rows))?;
        Ok((outcome, rows))
    }

    fn execute_into(
        &mut self,
        template: &QueryTemplate,
        params: &[Value],
        mut rows: Option<&mut Vec<Row>>,
    ) -> Result<ExecOutcome, EngineError> {
        let qid = template.query_id();
        let now = self.clock.now();

        // Auto-update statistics for involved tables (recompile trigger).
        if self.config.auto_update_stats {
            let mut to_update: Vec<TableId> = Vec::new();
            let primary = template.statement.table();
            if self.stats.get(&primary).is_some_and(TableStats::is_stale) {
                to_update.push(primary);
            }
            if let Statement::Select(q) = &template.statement {
                if let Some(j) = &q.join {
                    if self.stats.get(&j.table).is_some_and(TableStats::is_stale) {
                        to_update.push(j.table);
                    }
                }
            }
            for t in to_update {
                self.rebuild_stats(t);
            }
        }

        // Plan-selection memoization: hits validate the entry's catalog-
        // epoch fingerprint and reuse the interned compilation wholesale.
        // With the cache disabled (the differential oracle) every
        // execution recompiles; pinned parameter sniffing plus the
        // geometry snapshots make both paths bit-identical.
        let entry = self.lookup_or_compile(qid, template, params);
        // The MI DMV accumulates per execution, not per compile.
        for obs in &entry.missing {
            self.mi_dmv.record(obs, now);
        }

        let result = self.run_plan(
            &template.statement,
            &entry.plan,
            params,
            rows.as_deref_mut(),
        );
        let metrics = match result {
            Ok(m) => m,
            Err(ExecError::MissingIndex(_)) | Err(ExecError::HypotheticalPlan) => {
                // Stale plan (index dropped since compile): recompile once.
                // Both errors are raised before any row reaches `rows`.
                let entry = self.compile_entry(qid, template, params);
                if self.config.plan_cache {
                    self.plan_cache.insert(qid, std::sync::Arc::clone(&entry));
                }
                let retry = self.run_plan(&template.statement, &entry.plan, params, rows)?;
                return Ok(self.finish_execution(template, params, qid, &entry, retry, now));
            }
            Err(e) => return Err(e.into()),
        };
        Ok(self.finish_execution(template, params, qid, &entry, metrics, now))
    }

    /// Cache lookup with epoch validation, falling back to compilation.
    fn lookup_or_compile(
        &mut self,
        qid: QueryId,
        template: &QueryTemplate,
        params: &[Value],
    ) -> std::sync::Arc<CachedPlan> {
        if self.config.plan_cache {
            match self.plan_cache.get(&qid) {
                Some(c) if c.fingerprint == self.config_fingerprint(&c.tables) => {
                    self.plan_cache_stats.hits += 1;
                    return std::sync::Arc::clone(c);
                }
                Some(_) => self.plan_cache_stats.invalidations += 1,
                None => self.plan_cache_stats.misses += 1,
            }
            let entry = self.compile_entry(qid, template, params);
            self.plan_cache.insert(qid, std::sync::Arc::clone(&entry));
            entry
        } else {
            self.compile_entry(qid, template, params)
        }
    }

    /// Compile a statement into an interned cache entry. Compilation is a
    /// pure function of `(statement, config_fingerprint)`: parameters are
    /// pinned to the first binding ever seen for this query id, and the
    /// planner reads epoch-stable geometry snapshots — so cached and
    /// uncached executions derive identical plans.
    fn compile_entry(
        &mut self,
        qid: QueryId,
        template: &QueryTemplate,
        params: &[Value],
    ) -> std::sync::Arc<CachedPlan> {
        let sniffed: Vec<Value> = match self.pinned_params.get(&qid) {
            Some(p) => p.clone(),
            None => {
                self.pinned_params.insert(qid, params.to_vec());
                params.to_vec()
            }
        };
        let tables = template.statement.tables_touched();
        let fingerprint = self.config_fingerprint(&tables);
        let (plan, missing) = self.compile(&template.statement, &sniffed);

        // Query Store references. Write plans contain maintenance
        // operators for every index they touch (as SQL Server update
        // plans do), so a write statement's plan references — and plan
        // identity — include the maintained indexes. This is what lets
        // the validator attribute "writes got more expensive" regressions
        // to a new index (§8.1).
        let mut refs: Vec<String> = plan
            .referenced_indexes()
            .into_iter()
            .map(str::to_string)
            .collect();
        let mut maintained: Vec<IndexId> = Vec::new();
        if template.statement.is_write() {
            let table = template.statement.table();
            maintained = self.catalog.indexes_on(table).map(|(id, _)| id).collect();
            let set_cols: Option<Vec<ColumnId>> = match &template.statement {
                Statement::Update { set, .. } => Some(set.iter().map(|(c, _)| *c).collect()),
                _ => None,
            };
            for (_, def) in self.catalog.indexes_on(table) {
                let in_refs = match &set_cols {
                    // Updates only maintain indexes containing a SET column.
                    Some(cols) => def.leaf_columns().any(|lc| cols.contains(&lc)),
                    // Inserts/deletes maintain every index on the table.
                    None => true,
                };
                if in_refs && !refs.iter().any(|r| r == &def.name) {
                    refs.push(def.name.clone());
                }
            }
        }
        let plan_id = if template.statement.is_write() {
            // Fold the maintenance set into the plan identity so adding or
            // dropping an index changes the write's plan.
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            plan.plan_id().0.hash(&mut h);
            refs.hash(&mut h);
            PlanId(h.finish())
        } else {
            plan.plan_id()
        };
        let estimates = plan.estimates();
        std::sync::Arc::new(CachedPlan {
            plan,
            missing,
            tables,
            fingerprint,
            refs: std::sync::Arc::new(refs),
            plan_id,
            estimates,
            maintained,
        })
    }

    fn compile(
        &mut self,
        stmt: &Statement,
        params: &[Value],
    ) -> (Plan, Vec<MissingIndexObservation>) {
        self.optimizer_calls += 1;
        let env = EngineEnv { db: self };
        let r = optimize(&env, stmt, params);
        (r.plan, r.missing)
    }

    fn run_plan(
        &mut self,
        stmt: &Statement,
        plan: &Plan,
        params: &[Value],
        rows: Option<&mut Vec<Row>>,
    ) -> Result<ActualMetrics, ExecError> {
        let mut ctx = ExecContext {
            catalog: &self.catalog,
            heaps: &mut self.heaps,
            indexes: &mut self.indexes,
        };
        match (stmt, plan) {
            (Statement::Select(q), Plan::Select(sp)) => execute_select(&ctx, q, sp, params, rows),
            _ => execute_dml(&mut ctx, stmt, plan, params),
        }
    }

    fn finish_execution(
        &mut self,
        template: &QueryTemplate,
        params: &[Value],
        qid: QueryId,
        entry: &CachedPlan,
        mut metrics: ActualMetrics,
        now: Timestamp,
    ) -> ExecOutcome {
        // Concurrency noise: logical metrics get small noise, duration big.
        let cpu_mult = self.lognormal(self.config.cpu_noise_sigma);
        metrics.cpu_us *= cpu_mult;
        let dur_mult = self.lognormal(self.config.duration_noise_sigma);
        let duration_us = metrics.cpu_us / self.config.tier.cores() * dur_mult;

        // Track table modifications for staleness + maintenance usage.
        if template.statement.is_write() {
            let affected = metrics.rows_returned;
            if let Some(st) = self.stats.get_mut(&template.statement.table()) {
                st.note_modifications(affected.max(1));
            }
            for id in &entry.maintained {
                self.usage_dmv.note_updates(*id, affected);
            }
        }

        // Usage DMV from plan shape.
        self.note_usage(&entry.plan, now);

        // Query Store (references and plan identity are interned in the
        // cache entry — see `compile_entry`).
        self.query_store.record_prehashed(
            qid,
            template,
            params,
            entry.plan_id,
            &entry.refs,
            &metrics,
            duration_us,
            now,
        );
        self.total_cpu_us += metrics.cpu_us;

        ExecOutcome {
            query_id: qid,
            plan_id: entry.plan_id,
            referenced_indexes: std::sync::Arc::clone(&entry.refs),
            metrics,
            duration_us,
            estimates: entry.estimates,
        }
    }

    fn note_usage(&mut self, plan: &Plan, now: Timestamp) {
        let note_access = |a: &Access, dmv: &mut IndexUsageDmv| match a {
            Access::SeqScan => {}
            Access::IndexSeek {
                index, covering, ..
            } => {
                if let Some(id) = index.real_id() {
                    dmv.note_seek(id, now);
                    if !covering {
                        dmv.note_lookup(id);
                    }
                }
            }
            Access::IndexScan { index, .. } => {
                if let Some(id) = index.real_id() {
                    dmv.note_scan(id, now);
                }
            }
        };
        match plan {
            Plan::Select(p) => {
                note_access(&p.access, &mut self.usage_dmv);
                if let Some(j) = &p.join {
                    match &j.strategy {
                        JoinStrategy::Hash { inner_access } => {
                            note_access(inner_access, &mut self.usage_dmv)
                        }
                        JoinStrategy::IndexNestedLoop { inner_index, .. } => {
                            if let Some(id) = inner_index.real_id() {
                                self.usage_dmv.note_seek(id, now);
                            }
                        }
                    }
                }
            }
            Plan::Update(p) | Plan::Delete(p) => {
                note_access(&p.access, &mut self.usage_dmv);
            }
            Plan::Insert { .. } => {}
        }
    }

    fn lognormal(&mut self, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return 1.0;
        }
        // Box–Muller.
        let u1: f64 = self.rng.random::<f64>().max(1e-12);
        let u2: f64 = self.rng.random::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (sigma * z - sigma * sigma / 2.0).exp()
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a secondary index online. Returns the build report.
    pub fn create_index(
        &mut self,
        def: IndexDef,
    ) -> Result<(IndexId, IndexBuildReport), EngineError> {
        let table = def.table;
        let tdef = self.catalog.table(table)?.clone();
        let id = self.catalog.add_index(def.clone())?;
        let mut ix = SecondaryIndex::new(def, &tdef);
        let heap = self.heaps.get(&table).expect("heap exists");
        ix.build(heap);
        let size = ix.size_bytes();
        self.indexes.insert(id, ix);
        // Schema change: the missing-index DMV resets (§5.2), which is why
        // the MI recommender snapshots it.
        self.mi_dmv.reset();
        self.bump_config();
        let build_secs = size as f64 / self.config.tier.index_build_rate();
        let report = IndexBuildReport {
            index_size_bytes: size,
            log_bytes: size,
            build_duration: Duration::from_millis((build_secs * 1000.0) as u64),
        };
        Ok((id, report))
    }

    /// Drop an index. The FIFO-convoy hazard of the metadata lock is
    /// modeled in [`crate::lock`]; at the storage level the drop itself is
    /// instantaneous.
    pub fn drop_index(&mut self, id: IndexId) -> Result<IndexDef, EngineError> {
        let def = self.catalog.remove_index(id)?;
        self.indexes.remove(&id);
        self.usage_dmv.forget(id);
        self.mi_dmv.reset();
        self.bump_config();
        Ok(def)
    }

    /// Simulate a restart / failover: missing-index DMV and plan cache are
    /// lost (the reset the MI recommender must tolerate, §5.2).
    pub fn restart(&mut self) {
        self.mi_dmv.reset();
        self.plan_cache.clear();
        // Sniffed parameters live in the plan cache's process memory; a
        // failover loses them with it, and the next execution re-pins.
        self.pinned_params.clear();
        self.bump_config();
    }

    /// Storage-level snapshot used to seed a B-instance: an independent
    /// copy with its own noise stream (different seed → divergent noise,
    /// like a different physical server).
    pub fn fork(&self, new_name: impl Into<String>, new_seed: u64) -> Database {
        let mut copy = self.clone();
        copy.name = new_name.into();
        copy.config.seed = new_seed;
        copy.rng = StdRng::seed_from_u64(new_seed);
        copy
    }

    // ------------------------------------------------------------------
    // What-if API
    // ------------------------------------------------------------------

    /// Open a what-if session for hypothetical configuration costing.
    pub fn what_if(&mut self) -> WhatIfSession<'_> {
        WhatIfSession {
            db: self,
            added: Vec::new(),
            base_geoms: std::cell::RefCell::new(BTreeMap::new()),
        }
    }

    fn index_geoms(&self, t: TableId) -> Vec<IndexGeom> {
        self.catalog
            .indexes_on(t)
            .filter_map(|(id, def)| {
                self.indexes.get(&id).map(|ix| IndexGeom {
                    rref: IndexRef::Real {
                        id,
                        name: def.name.clone(),
                    },
                    def: def.clone(),
                    height: ix.height() as f64,
                    leaf_pages: ix.leaf_pages() as f64,
                    entries: ix.len() as f64,
                })
            })
            .collect()
    }
}

/// Planner environment over the epoch-stable geometry snapshots. Reading
/// snapshots instead of live heap/index sizes keeps compilation a pure
/// function of the catalog epoch: live sizes drift with every write,
/// which would make eager recompiles (the cache-off oracle) diverge from
/// memoized plans.
struct EngineEnv<'a> {
    db: &'a Database,
}

impl PlannerEnv for EngineEnv<'_> {
    fn table_def(&self, t: TableId) -> &TableDef {
        self.db.catalog.table(t).expect("planner table")
    }
    fn table_stats(&self, t: TableId) -> &TableStats {
        self.db.stats.get(&t).expect("planner stats")
    }
    fn heap_pages(&self, t: TableId) -> f64 {
        self.db.geom.get(&t).map(|g| g.heap_pages).unwrap_or(1.0)
    }
    fn indexes_on(&self, t: TableId) -> Vec<IndexGeom> {
        self.db
            .geom
            .get(&t)
            .map(|g| g.indexes.clone())
            .unwrap_or_default()
    }
}

/// A what-if session: plans are costed under the real indexes and the
/// added hypothetical ones, with nothing materialized. Each `cost` call
/// counts as an optimizer invocation (the overhead DTA budgets, §5.3.1).
pub struct WhatIfSession<'a> {
    db: &'a mut Database,
    added: Vec<IndexDef>,
    /// Per-table *real*-index geometry, resolved lazily on first touch and
    /// shared by every subsequent `cost` in the session — the catalog and
    /// materialized indexes cannot change while the session borrows the
    /// database, so one resolution walk serves the whole batch.
    /// Hypotheticals are layered on top, so they do not invalidate it.
    base_geoms: std::cell::RefCell<BTreeMap<TableId, Vec<IndexGeom>>>,
}

impl WhatIfSession<'_> {
    /// Add a hypothetical index to the configuration under test.
    pub fn add_hypothetical(&mut self, def: IndexDef) {
        self.added.push(def);
    }

    pub fn clear(&mut self) {
        self.added.clear();
    }

    /// Stable fingerprint of the configuration under test, **restricted
    /// to the given tables** (callers pass a statement's
    /// [`tables_touched`](crate::query::Statement::tables_touched)).
    ///
    /// The fingerprint hashes, per table in the order given: the identity
    /// of every real index (id + keys + includes), plus every hypothetical
    /// index on that table as its *structural* identity
    /// `(key_columns, included_columns)` — deliberately **not** its name,
    /// so salted display names never perturb the fingerprint — sorted so
    /// insertion order is irrelevant.
    ///
    /// Two sessions with the same fingerprint over a statement's touched
    /// tables produce bit-identical `cost()` estimates for it (costing is
    /// a pure function of the visible per-table configuration), which is
    /// what licenses a (statement, fingerprint)-keyed what-if cost cache.
    pub fn config_fingerprint(&self, tables: &[TableId]) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for t in tables {
            t.hash(&mut h);
            // Real indexes, in catalog (id) order.
            for (id, def) in self.db.catalog.indexes_on(*t) {
                id.hash(&mut h);
                def.key_columns.hash(&mut h);
                def.included_columns.hash(&mut h);
            }
            // Hypothetical indexes, by sorted structural identity.
            let mut hypo: Vec<(&[ColumnId], &[ColumnId])> = self
                .added
                .iter()
                .filter(|d| d.table == *t)
                .map(|d| (d.key_columns.as_slice(), d.included_columns.as_slice()))
                .collect();
            hypo.sort_unstable();
            hypo.hash(&mut h);
        }
        h.finish()
    }

    /// Cost a statement under the hypothetical configuration. Returns the
    /// plan (may reference hypothetical indexes — not executable) and its
    /// estimates.
    pub fn cost(&mut self, template: &QueryTemplate, params: &[Value]) -> (Plan, PlanEstimates) {
        self.db.optimizer_calls += 1;
        let env = WhatIfEnv {
            db: self.db,
            added: &self.added,
            base_geoms: &self.base_geoms,
        };
        let r = optimize(&env, &template.statement, params);
        let est = r.plan.estimates();
        (r.plan, est)
    }
}

struct WhatIfEnv<'a> {
    db: &'a Database,
    added: &'a [IndexDef],
    base_geoms: &'a std::cell::RefCell<BTreeMap<TableId, Vec<IndexGeom>>>,
}

impl PlannerEnv for WhatIfEnv<'_> {
    fn table_def(&self, t: TableId) -> &TableDef {
        self.db.catalog.table(t).expect("planner table")
    }
    fn table_stats(&self, t: TableId) -> &TableStats {
        self.db.stats.get(&t).expect("planner stats")
    }
    fn heap_pages(&self, t: TableId) -> f64 {
        self.db
            .heaps
            .get(&t)
            .map(|h| h.page_count() as f64)
            .unwrap_or(1.0)
    }
    fn indexes_on(&self, t: TableId) -> Vec<IndexGeom> {
        let mut memo = self.base_geoms.borrow_mut();
        let base = memo.entry(t).or_insert_with(|| self.db.index_geoms(t));
        let mut geoms = base.clone();
        let rows = self
            .db
            .stats
            .get(&t)
            .map(|s| s.row_count as f64)
            .unwrap_or(0.0);
        let tdef = self.db.catalog.table(t).expect("table");
        for def in self.added.iter().filter(|d| d.table == t) {
            geoms.push(IndexGeom::hypothetical(def.clone(), tdef, rows));
        }
        geoms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CmpOp, Predicate, Scalar, SelectQuery};
    use crate::schema::{ColumnDef, ColumnId};
    use crate::types::ValueType;

    fn orders_db() -> (Database, TableId) {
        let clock = SimClock::new();
        let mut db = Database::new("testdb", DbConfig::default(), clock);
        let t = db
            .create_table(TableDef::new(
                "orders",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("customer_id", ValueType::Int),
                    ColumnDef::new("status", ValueType::Int),
                    ColumnDef::new("total", ValueType::Float),
                ],
            ))
            .unwrap();
        db.load_rows(
            t,
            (0..5000i64).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 200),
                    Value::Int(i % 5),
                    Value::Float((i % 1000) as f64),
                ]
            }),
        );
        db.rebuild_stats(t);
        (db, t)
    }

    /// Rows loaded by column, into a table empty or not and with an index
    /// already on it, are the rows `load_rows` gives, under the same ids,
    /// with the same index entries and statistics.
    #[test]
    fn load_columns_equals_load_rows() {
        let row = |i: i64| -> Row {
            let status = if i % 7 == 0 {
                Value::Null
            } else {
                Value::from(format!("s{}", i % 3))
            };
            vec![Value::Int(i), Value::Int(i % 40), status]
        };
        let new_db = || {
            let mut db = Database::new("load", DbConfig::default(), SimClock::new());
            let t = db
                .create_table(TableDef::new(
                    "orders",
                    vec![
                        ColumnDef::new("id", ValueType::Int),
                        ColumnDef::new("customer_id", ValueType::Int),
                        ColumnDef::new("status", ValueType::Str),
                    ],
                ))
                .unwrap();
            let def = IndexDef::new("ix", t, vec![ColumnId(1)], vec![ColumnId(2)]);
            let (ix, _) = db.create_index(def).unwrap();
            (db, t, ix)
        };
        let ((mut by_rows, t, ix), (mut by_columns, _, _)) = (new_db(), new_db());
        for batch in [0..3_000i64, 3_000..3_500] {
            by_rows.load_rows(t, batch.clone().map(row));
            let rows: Vec<Row> = batch.map(row).collect();
            let types = [ValueType::Int, ValueType::Int, ValueType::Str];
            let columns = (types.iter().enumerate())
                .map(|(c, &ty)| {
                    let mut col = Column::of_type(ty, rows.len());
                    rows.iter().for_each(|r| col.push(r[c].clone()));
                    col
                })
                .collect();
            by_columns.load_columns(t, columns);
        }
        let rows = |db: &mut Database| {
            db.rebuild_stats(t);
            let heap = db.heap(t).unwrap();
            let rows: Vec<_> = heap.live_ids().map(|r| (r, heap.row(r))).collect();
            let index = db.secondary_index(ix).unwrap().scan_all().entries;
            let entries: Vec<_> = (index.into_iter())
                .map(|e| (e.rid, e.key_vals, e.included_vals))
                .collect();
            let stats = format!("{:?}", db.table_stats(t).unwrap().columns);
            (rows, entries, stats)
        };
        let want = rows(&mut by_rows);
        assert_eq!(want.0.len(), 3_500);
        assert!(rows(&mut by_columns) == want);
    }

    fn select_customer(t: TableId) -> QueryTemplate {
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0), ColumnId(3)];
        QueryTemplate::new(Statement::Select(q), 1)
    }

    #[test]
    fn execute_records_query_store_and_mi() {
        let (mut db, t) = orders_db();
        let tpl = select_customer(t);
        for i in 0..10 {
            let (_, rows) = db.query(&tpl, &[Value::Int(i)]).unwrap();
            assert_eq!(rows.len(), 25);
        }
        let qs = db.query_store();
        let agg = qs.query_stats(tpl.query_id(), Timestamp::EPOCH, Timestamp(1));
        assert_eq!(agg.count(), 10);
        assert!(agg.cpu.mean() > 0.0);
        // MI DMV should have accumulated an entry for customer_id.
        assert_eq!(db.mi_dmv().len(), 1);
        let (k, s) = db.mi_dmv().entries().next().unwrap();
        assert_eq!(k.equality_columns, vec![ColumnId(1)]);
        assert_eq!(s.user_seeks, 10, "MI DMV accumulates per execution");
    }

    #[test]
    fn create_index_changes_plan_and_improves_metrics() {
        let (mut db, t) = orders_db();
        let tpl = select_customer(t);
        let before = db.execute(&tpl, &[Value::Int(7)]).unwrap();
        let def = IndexDef::new(
            "ix_cust",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(3)],
        );
        let (_, report) = db.create_index(def).unwrap();
        assert!(report.index_size_bytes > 0);
        assert!(report.build_duration > Duration::ZERO);
        let after = db.execute(&tpl, &[Value::Int(7)]).unwrap();
        assert_ne!(before.plan_id, after.plan_id, "plan must change");
        assert!(after.referenced_indexes.contains(&"ix_cust".to_string()));
        assert!(after.metrics.logical_reads < before.metrics.logical_reads);
        // Query Store has both plans.
        assert_eq!(db.query_store().plan_history(tpl.query_id()).len(), 2);
    }

    #[test]
    fn drop_index_reverts_plan() {
        let (mut db, t) = orders_db();
        let tpl = select_customer(t);
        let def = IndexDef::new(
            "ix_cust",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(3)],
        );
        let (id, _) = db.create_index(def).unwrap();
        let with_ix = db.execute(&tpl, &[Value::Int(7)]).unwrap();
        db.drop_index(id).unwrap();
        let (without, rows) = db.query(&tpl, &[Value::Int(7)]).unwrap();
        assert_ne!(with_ix.plan_id, without.plan_id);
        assert!(without.referenced_indexes.is_empty());
        assert_eq!(rows.len(), 25);
    }

    #[test]
    fn what_if_costs_without_materializing() {
        let (mut db, t) = orders_db();
        let tpl = select_customer(t);
        let baseline_calls = db.optimizer_calls;
        let mut session = db.what_if();
        let (plan_before, est_before) = session.cost(&tpl, &[Value::Int(7)]);
        session.add_hypothetical(IndexDef::new(
            "hypo_cust",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(3)],
        ));
        let (plan_after, est_after) = session.cost(&tpl, &[Value::Int(7)]);
        assert!(!plan_before.is_hypothetical());
        assert!(plan_after.is_hypothetical());
        assert!(est_after.cpu_us < est_before.cpu_us);
        drop(session);
        assert_eq!(db.optimizer_calls, baseline_calls + 2);
        // Nothing was created.
        assert_eq!(db.catalog().n_indexes(), 0);
    }

    #[test]
    fn reused_session_costs_like_fresh_sessions() {
        let (mut db, t) = orders_db();
        // One real index so the memoized base geometry is non-trivial.
        db.create_index(IndexDef::new("ix_status", t, vec![ColumnId(2)], vec![]))
            .unwrap();
        let tpl = select_customer(t);
        let alts: Vec<IndexDef> = vec![
            IndexDef::new("h0", t, vec![ColumnId(1)], vec![]),
            IndexDef::new("h1", t, vec![ColumnId(1)], vec![ColumnId(0), ColumnId(3)]),
            IndexDef::new("h2", t, vec![ColumnId(3)], vec![]),
        ];

        // Sequential oracle: add → cost → clear, fresh session each time.
        let mut sequential = Vec::new();
        for def in &alts {
            let mut s = db.what_if();
            s.add_hypothetical(def.clone());
            sequential.push(s.cost(&tpl, &[Value::Int(7)]));
        }

        // One session reused: add → cost → clear. Its memoized base
        // geometry must not leak one alternative into the next (DTA
        // relies on this memo).
        let calls_before = db.optimizer_calls;
        let mut s = db.what_if();
        let mut reused = Vec::new();
        for def in &alts {
            s.add_hypothetical(def.clone());
            reused.push(s.cost(&tpl, &[Value::Int(7)]));
            s.clear();
        }
        drop(s);
        assert_eq!(
            db.optimizer_calls,
            calls_before + alts.len() as u64,
            "each alternative counts as one optimizer invocation"
        );
        assert_eq!(reused, sequential, "a reused session costs like fresh ones");
    }

    #[test]
    fn config_fingerprint_stable_and_name_blind() {
        let (mut db, t) = orders_db();
        let other = TableId(t.0 + 1);
        let mut session = db.what_if();
        let empty = session.config_fingerprint(&[t]);
        assert_eq!(empty, session.config_fingerprint(&[t]), "deterministic");

        session.add_hypothetical(IndexDef::new(
            "a_0",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(3)],
        ));
        let one = session.config_fingerprint(&[t]);
        assert_ne!(empty, one, "adding an index changes the fingerprint");
        // A second hypothetical on an unrelated table leaves `t`'s view alone.
        session.add_hypothetical(IndexDef::new("b_0", other, vec![ColumnId(0)], vec![]));
        assert_eq!(one, session.config_fingerprint(&[t]));

        // Same structure under different salted names and insertion order
        // fingerprints identically.
        session.clear();
        session.add_hypothetical(IndexDef::new("b_99", other, vec![ColumnId(0)], vec![]));
        session.add_hypothetical(IndexDef::new(
            "a_42",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(3)],
        ));
        assert_eq!(one, session.config_fingerprint(&[t]));

        // Different includes are a different configuration.
        session.clear();
        session.add_hypothetical(IndexDef::new("a_0", t, vec![ColumnId(1)], vec![]));
        assert_ne!(one, session.config_fingerprint(&[t]));
    }

    #[test]
    fn config_fingerprint_sees_real_indexes() {
        let (mut db, t) = orders_db();
        let before = db.what_if().config_fingerprint(&[t]);
        db.create_index(IndexDef::new("real", t, vec![ColumnId(2)], vec![]))
            .unwrap();
        let with_real = db.what_if().config_fingerprint(&[t]);
        assert_ne!(before, with_real, "real index is part of the config");
    }

    #[test]
    fn restart_resets_mi_dmv_and_plan_cache() {
        let (mut db, t) = orders_db();
        let tpl = select_customer(t);
        db.execute(&tpl, &[Value::Int(1)]).unwrap();
        assert!(!db.mi_dmv().is_empty());
        db.restart();
        assert!(db.mi_dmv().is_empty());
        assert_eq!(db.mi_dmv().resets, 1);
        // Re-execution re-optimizes and repopulates.
        db.execute(&tpl, &[Value::Int(1)]).unwrap();
        assert!(!db.mi_dmv().is_empty());
    }

    #[test]
    fn writes_mark_stats_stale_and_auto_update() {
        let (mut db, t) = orders_db();
        let ins = QueryTemplate::new(
            Statement::Insert {
                table: t,
                values: vec![
                    Scalar::Lit(Value::Int(99999)),
                    Scalar::Lit(Value::Int(1)),
                    Scalar::Lit(Value::Int(1)),
                    Scalar::Lit(Value::Float(1.0)),
                ],
            },
            0,
        );
        for _ in 0..1600 {
            db.execute(&ins, &[]).unwrap();
        }
        // Auto-update kicked in at some point: stats row count includes
        // some of the inserts.
        let rc = db.table_stats(t).unwrap().row_count;
        assert!(rc > 5000, "stats should have refreshed, row_count {rc}");
    }

    #[test]
    fn usage_dmv_tracks_seeks() {
        let (mut db, t) = orders_db();
        let def = IndexDef::new(
            "ix_cust",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(3)],
        );
        let (id, _) = db.create_index(def).unwrap();
        let tpl = select_customer(t);
        for i in 0..5 {
            db.execute(&tpl, &[Value::Int(i)]).unwrap();
        }
        assert_eq!(db.usage_dmv().usage(id).user_seeks, 5);
    }

    #[test]
    fn fork_is_independent() {
        let (mut db, t) = orders_db();
        let mut b = db.fork("b-instance", 999);
        let tpl = select_customer(t);
        // Mutate the fork only.
        let def = IndexDef::new(
            "ix_cust",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(3)],
        );
        b.create_index(def).unwrap();
        assert_eq!(db.catalog().n_indexes(), 0);
        assert_eq!(b.catalog().n_indexes(), 1);
        let (a_out, a_rows) = db.query(&tpl, &[Value::Int(7)]).unwrap();
        let (b_out, b_rows) = b.query(&tpl, &[Value::Int(7)]).unwrap();
        assert_eq!(a_rows.len(), b_rows.len());
        assert!(b_out.metrics.logical_reads < a_out.metrics.logical_reads);
    }

    #[test]
    fn duration_noisier_than_cpu() {
        let (mut db, t) = orders_db();
        let tpl = select_customer(t);
        let mut cpus = Vec::new();
        let mut durs = Vec::new();
        for _ in 0..50 {
            let o = db.execute(&tpl, &[Value::Int(7)]).unwrap();
            cpus.push(o.metrics.cpu_us);
            durs.push(o.duration_us);
        }
        let cv = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
            v.sqrt() / m
        };
        assert!(
            cv(&durs) > cv(&cpus),
            "duration CV {} must exceed cpu CV {}",
            cv(&durs),
            cv(&cpus)
        );
    }

    #[test]
    fn hinted_index_execution_fails_after_drop() {
        let (mut db, t) = orders_db();
        let def = IndexDef::new(
            "ix_hint",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(3)],
        )
        .hinted();
        let (id, _) = db.create_index(def).unwrap();
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::eq(ColumnId(1), 7i64)];
        q.projection = vec![ColumnId(0)];
        q.index_hint = Some("ix_hint".into());
        let tpl = QueryTemplate::new(Statement::Select(q), 0);
        assert!(db.execute(&tpl, &[]).is_ok());
        db.drop_index(id).unwrap();
        // The engine recompiles; with the hint unsatisfiable it degrades
        // to a scan (SQL Server would error; we degrade but the plan no
        // longer references the hint — detectable by the caller).
        let out = db.execute(&tpl, &[]).unwrap();
        assert!(out.referenced_indexes.is_empty());
    }
}
