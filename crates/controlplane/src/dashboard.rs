//! The §8.1 operational-statistics table (§3, §8.3).
//!
//! One auto-indexing service instance manages all databases in a region —
//! the compliance boundary: state and customer data never leave it. What
//! an operator sees is this table, rolled up from anonymized aggregates:
//! event counts, the canonical metrics registry, and the driver's
//! bookkeeping counters. Each line has exactly one source (DESIGN.md,
//! "Observability is a pure function of fleet state").

use crate::metrics::MetricsRegistry;
use crate::telemetry::{EventKind, Telemetry};
use sqlmini::clock::Duration;
use std::collections::BTreeMap;

/// The §8.1 operational-statistics table, rolled up from a run's merged
/// [`Telemetry`] counts and [`MetricsRegistry`]. One snapshot summarizes
/// a fleet (or region) at a point in simulated time: backlog levels,
/// implementation throughput, revert rate with cause/source breakdowns,
/// and chaos counters.
///
/// Built purely from the two merged sinks plus the simulated horizon, so
/// a parallel fleet run — whose merged sinks are byte-identical to the
/// serial run's — yields a byte-identical snapshot and rendering.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DashboardSnapshot {
    /// Databases the registry saw (`fleet.tenants` gauge).
    pub databases: i64,
    /// Databases with auto-implementation enabled (`fleet.auto_tenants`).
    pub auto_databases: i64,
    /// Simulated time the metrics cover, in milliseconds.
    sim_millis: u64,
    /// Backlog: Active CREATE INDEX recommendations awaiting action.
    outstanding_creates: i64,
    /// Backlog: Active DROP INDEX recommendations awaiting action.
    outstanding_drops: i64,
    pub implemented_creates: u64,
    pub implemented_drops: u64,
    pub reverts: u64,
    /// Reverts by trigger (`revert.cause.*`).
    pub revert_causes: BTreeMap<String, u64>,
    /// Reverts by originating recommender (`revert.source.*`).
    pub reverts_by_source: BTreeMap<String, u64>,
    expired: u64,
    /// Queries measured in both the first and last observation windows.
    queries_measured: u64,
    /// Of those, queries whose mean CPU improved by ≥2× (§8.1).
    queries_improved_2x: u64,
    /// Databases whose fixed-count CPU cost at least halved (§8.1).
    dbs_cpu_halved: u64,
    recoveries: u64,
    quarantines: u64,
    poisoned: u64,
    incidents: u64,
    /// DTA sessions run (`dta.sessions`) / aborted on budget.
    pub dta_sessions: u64,
    dta_sessions_aborted: u64,
    /// What-if optimizer calls DTA actually issued (`dta.whatif.issued`).
    pub what_if_issued: u64,
    /// What-if calls answered from the cost cache (`dta.whatif.saved.cache`).
    pub what_if_saved_cache: u64,
    /// What-if calls skipped by relevance pruning (`dta.whatif.saved.pruning`).
    what_if_saved_pruning: u64,
    /// Control-plane passes the fleet scheduler ran (this and the eight
    /// fields after it are 0 when the snapshot was built without driver
    /// context — see [`DashboardSnapshot::with_driver`]).
    sched_ticks_executed: u64,
    /// Control-plane passes the sparse scheduler proved unnecessary.
    sched_ticks_skipped: u64,
    /// Plan-selection cache hits across the fleet's tenant engines.
    plan_cache_hits: u64,
    /// Plan-selection cache misses (compilations actually run).
    plan_cache_misses: u64,
    /// Cached plans discarded because the catalog fingerprint moved.
    plan_cache_invalidations: u64,
    /// Checkpoint frames written by journal compaction.
    checkpoints_written: u64,
    /// Journal frames truncated away by compaction.
    frames_compacted: u64,
    /// Journal bytes reclaimed by compaction.
    journal_bytes_reclaimed: u64,
    /// Recoveries that stepped down the checkpoint fallback ladder.
    fallback_recoveries: u64,
    /// Tenants sampled into the policy-flight cohort (0 when the
    /// snapshot was built without flight context — see
    /// [`DashboardSnapshot::with_flight`]).
    flight_cohort: u64,
    /// Cohort tenants where the candidate policy measurably improved.
    flight_improved: u64,
    /// Cohort tenants where the candidate policy measurably regressed.
    flight_regressed: u64,
    /// Cohort tenants with no significant difference.
    flight_washed: u64,
    /// Cohort tenants discarded by the divergence guard.
    flight_discarded: u64,
    /// The region-level flight decision ("ship" / "abort"; empty when no
    /// flight context was attached).
    flight_verdict: String,
}

impl DashboardSnapshot {
    /// Roll a run's merged sinks up into the ops table. What the control
    /// plane announces as an event is read from the event's count; what
    /// only the registry records (levels, splits by action, cause or
    /// source, DTA and workload tallies) is read from the registry.
    pub fn new(
        telemetry: &Telemetry,
        metrics: &MetricsRegistry,
        sim_time: Duration,
    ) -> DashboardSnapshot {
        DashboardSnapshot {
            databases: metrics.gauge("fleet.tenants"),
            auto_databases: metrics.gauge("fleet.auto_tenants"),
            sim_millis: sim_time.millis(),
            outstanding_creates: metrics.gauge("outstanding.create"),
            outstanding_drops: metrics.gauge("outstanding.drop"),
            implemented_creates: metrics.counter("implement.succeeded.create_index"),
            implemented_drops: metrics.counter("implement.succeeded.drop_index"),
            reverts: telemetry.count(EventKind::RevertSucceeded),
            revert_causes: metrics.breakdown("revert.cause."),
            reverts_by_source: metrics.breakdown("revert.source."),
            expired: telemetry.count(EventKind::RecommendationExpired),
            queries_measured: metrics.counter("workload.queries_measured"),
            queries_improved_2x: metrics.counter("workload.queries_improved_2x"),
            dbs_cpu_halved: metrics.counter("workload.dbs_cpu_halved"),
            recoveries: telemetry.count(EventKind::StoreRecovered),
            quarantines: telemetry.count(EventKind::TenantQuarantined),
            poisoned: telemetry.count(EventKind::TenantPoisoned),
            incidents: telemetry.count(EventKind::IncidentRaised),
            dta_sessions: metrics.counter("dta.sessions"),
            dta_sessions_aborted: metrics.counter("dta.sessions.aborted"),
            what_if_issued: metrics.counter("dta.whatif.issued"),
            what_if_saved_cache: metrics.counter("dta.whatif.saved.cache"),
            what_if_saved_pruning: metrics.counter("dta.whatif.saved.pruning"),
            sched_ticks_executed: 0,
            sched_ticks_skipped: 0,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            plan_cache_invalidations: 0,
            checkpoints_written: 0,
            frames_compacted: 0,
            journal_bytes_reclaimed: 0,
            fallback_recoveries: 0,
            flight_cohort: 0,
            flight_improved: 0,
            flight_regressed: 0,
            flight_washed: 0,
            flight_discarded: 0,
            flight_verdict: String::new(),
        }
    }

    /// Attach the driver's bookkeeping registry (`scheduler_metrics` on a
    /// fleet or region report): control passes executed and skipped,
    /// plan-cache counters, journal compaction and fallback counters.
    /// They live outside the canonical registry because they differ by
    /// construction between scheduling modes, cache settings and
    /// compaction policies whose canonical output is identical. Gates
    /// the "fleet scheduler", "plan cache" and "journal / recovery"
    /// render blocks.
    pub(crate) fn with_driver(mut self, driver: &MetricsRegistry) -> DashboardSnapshot {
        self.sched_ticks_executed = driver.counter("scheduler.ticks_executed");
        self.sched_ticks_skipped = driver.counter("scheduler.ticks_skipped");
        self.plan_cache_hits = driver.counter("plan_cache.hits");
        self.plan_cache_misses = driver.counter("plan_cache.misses");
        self.plan_cache_invalidations = driver.counter("plan_cache.invalidations");
        self.checkpoints_written = driver.counter("journal.checkpoints_written");
        self.frames_compacted = driver.counter("journal.frames_compacted");
        self.journal_bytes_reclaimed = driver.counter("journal.bytes_reclaimed");
        self.fallback_recoveries = driver.counter("journal.fallback_recoveries");
        self
    }

    /// Attach policy-flight verdict counters (flight state is journaled
    /// store state, not a merged sink, so it arrives via this builder
    /// rather than the constructor). Gates the "flight" render block.
    pub fn with_flight(
        mut self,
        cohort: u64,
        improved: u64,
        regressed: u64,
        washed: u64,
        discarded: u64,
        verdict: impl Into<String>,
    ) -> DashboardSnapshot {
        self.flight_cohort = cohort;
        self.flight_improved = improved;
        self.flight_regressed = regressed;
        self.flight_washed = washed;
        self.flight_discarded = discarded;
        self.flight_verdict = verdict.into();
        self
    }

    /// Fraction of statement executions served by a memoized plan.
    fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.plan_cache_hits as f64 / total as f64
    }

    /// Fraction of scheduled control passes skipped as provably idle.
    fn sched_skip_fraction(&self) -> f64 {
        let total = self.sched_ticks_executed + self.sched_ticks_skipped;
        if total == 0 {
            return 0.0;
        }
        self.sched_ticks_skipped as f64 / total as f64
    }

    /// Fraction of DTA what-if lookups served by the cost cache.
    pub fn what_if_cache_hit_rate(&self) -> f64 {
        let lookups = self.what_if_saved_cache + self.what_if_issued;
        if lookups == 0 {
            return 0.0;
        }
        self.what_if_saved_cache as f64 / lookups as f64
    }

    /// Fraction of would-be what-if calls avoided (cache + pruning).
    pub fn what_if_saved_fraction(&self) -> f64 {
        let saved = self.what_if_saved_cache + self.what_if_saved_pruning;
        let total = saved + self.what_if_issued;
        if total == 0 {
            return 0.0;
        }
        saved as f64 / total as f64
    }

    /// Fraction of databases with auto-implementation on (§8.1 reports
    /// roughly a quarter of the fleet).
    fn auto_fraction(&self) -> f64 {
        if self.databases <= 0 {
            return 0.0;
        }
        self.auto_databases as f64 / self.databases as f64
    }

    fn sim_weeks(&self) -> f64 {
        self.sim_millis as f64 / Duration::from_days(7).millis() as f64
    }

    /// Implemented creates per simulated week.
    fn weekly_creates(&self) -> f64 {
        let w = self.sim_weeks();
        if w <= 0.0 {
            return 0.0;
        }
        self.implemented_creates as f64 / w
    }

    /// Implemented drops per simulated week.
    fn weekly_drops(&self) -> f64 {
        let w = self.sim_weeks();
        if w <= 0.0 {
            return 0.0;
        }
        self.implemented_drops as f64 / w
    }

    /// Reverts ÷ implemented actions (§8.1 reports ~11%).
    fn revert_rate(&self) -> f64 {
        let implemented = self.implemented_creates + self.implemented_drops;
        if implemented == 0 {
            return 0.0;
        }
        self.reverts as f64 / implemented as f64
    }

    /// Outstanding drops per outstanding create (§8.1: drop backlog
    /// dwarfs the create backlog, ~3.4M vs ~250K).
    fn drop_backlog_ratio(&self) -> f64 {
        if self.outstanding_creates <= 0 {
            return 0.0;
        }
        self.outstanding_drops as f64 / self.outstanding_creates as f64
    }

    /// Render the §8.1 ops table. Pure function of the snapshot —
    /// byte-identical across runs that produced equal snapshots.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== operational statistics (\u{a7}8.1) ==\n");
        out.push_str(&format!(
            "databases under management      {:>8}\n",
            self.databases
        ));
        out.push_str(&format!(
            "  auto-implement enabled        {:>8}  ({:.1}% of fleet)\n",
            self.auto_databases,
            self.auto_fraction() * 100.0
        ));
        out.push_str(&format!(
            "simulated horizon               {:>8.2} weeks\n",
            self.sim_weeks()
        ));
        out.push_str("outstanding recommendations\n");
        out.push_str(&format!(
            "  CREATE INDEX                  {:>8}\n",
            self.outstanding_creates
        ));
        out.push_str(&format!(
            "  DROP INDEX                    {:>8}  ({:.1}x create backlog)\n",
            self.outstanding_drops,
            self.drop_backlog_ratio()
        ));
        out.push_str("implemented actions\n");
        out.push_str(&format!(
            "  creates                       {:>8}  ({:.2}/week)\n",
            self.implemented_creates,
            self.weekly_creates()
        ));
        out.push_str(&format!(
            "  drops                         {:>8}  ({:.2}/week)\n",
            self.implemented_drops,
            self.weekly_drops()
        ));
        out.push_str(&format!(
            "reverted actions                {:>8}  ({:.1}% of implemented)\n",
            self.reverts,
            self.revert_rate() * 100.0
        ));
        for (cause, n) in &self.revert_causes {
            out.push_str(&format!("  cause {cause:<24}{n:>8}\n"));
        }
        for (source, n) in &self.reverts_by_source {
            out.push_str(&format!("  source {source:<23}{n:>8}\n"));
        }
        out.push_str(&format!(
            "expired recommendations         {:>8}\n",
            self.expired
        ));
        out.push_str("workload impact\n");
        out.push_str(&format!(
            "  queries improved >=2x         {:>8}  (of {} measured)\n",
            self.queries_improved_2x, self.queries_measured
        ));
        out.push_str(&format!(
            "  databases with CPU halved     {:>8}\n",
            self.dbs_cpu_halved
        ));
        if self.dta_sessions > 0 {
            out.push_str("DTA what-if budget (\u{a7}5.3.1)\n");
            out.push_str(&format!(
                "  sessions                      {:>8}  ({} aborted on budget)\n",
                self.dta_sessions, self.dta_sessions_aborted
            ));
            out.push_str(&format!(
                "  optimizer calls issued        {:>8}\n",
                self.what_if_issued
            ));
            out.push_str(&format!(
                "  calls saved (cache/pruning)   {:>8}  ({} / {}, {:.1}% avoided, hit rate {:.1}%)\n",
                self.what_if_saved_cache + self.what_if_saved_pruning,
                self.what_if_saved_cache,
                self.what_if_saved_pruning,
                self.what_if_saved_fraction() * 100.0,
                self.what_if_cache_hit_rate() * 100.0
            ));
        }
        if self.sched_ticks_executed + self.sched_ticks_skipped > 0 {
            out.push_str("fleet scheduler\n");
            out.push_str(&format!(
                "  control passes executed       {:>8}\n",
                self.sched_ticks_executed
            ));
            out.push_str(&format!(
                "  control passes skipped        {:>8}  ({:.1}% provably idle)\n",
                self.sched_ticks_skipped,
                self.sched_skip_fraction() * 100.0
            ));
        }
        if self.plan_cache_hits + self.plan_cache_misses > 0 {
            out.push_str("plan cache\n");
            out.push_str(&format!(
                "  hits                          {:>8}  ({:.1}% hit rate)\n",
                self.plan_cache_hits,
                self.plan_cache_hit_rate() * 100.0
            ));
            out.push_str(&format!(
                "  misses (compilations)         {:>8}\n",
                self.plan_cache_misses
            ));
            out.push_str(&format!(
                "  invalidations                 {:>8}\n",
                self.plan_cache_invalidations
            ));
        }
        if self.checkpoints_written + self.fallback_recoveries > 0 {
            out.push_str("journal / recovery\n");
            out.push_str(&format!(
                "  checkpoints written           {:>8}\n",
                self.checkpoints_written
            ));
            out.push_str(&format!(
                "  frames compacted              {:>8}\n",
                self.frames_compacted
            ));
            out.push_str(&format!(
                "  bytes reclaimed               {:>8}\n",
                self.journal_bytes_reclaimed
            ));
            out.push_str(&format!(
                "  fallback recoveries           {:>8}\n",
                self.fallback_recoveries
            ));
        }
        if self.flight_cohort > 0 || !self.flight_verdict.is_empty() {
            out.push_str("flight (\u{a7}7 policy A/B)\n");
            out.push_str(&format!(
                "  cohort tenants                {:>8}\n",
                self.flight_cohort
            ));
            out.push_str(&format!(
                "  improved                      {:>8}\n",
                self.flight_improved
            ));
            out.push_str(&format!(
                "  regressed                     {:>8}\n",
                self.flight_regressed
            ));
            out.push_str(&format!(
                "  wash                          {:>8}\n",
                self.flight_washed
            ));
            out.push_str(&format!(
                "  discarded (divergence)        {:>8}\n",
                self.flight_discarded
            ));
            out.push_str(&format!(
                "  verdict                       {:>8}\n",
                self.flight_verdict
            ));
        }
        out.push_str(&format!(
            "chaos: recoveries {} / quarantines {} / poisoned {} / incidents {}\n",
            self.recoveries, self.quarantines, self.poisoned, self.incidents
        ));
        out
    }
}
