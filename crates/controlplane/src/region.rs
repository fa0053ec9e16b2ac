//! Per-region deployment and cross-region aggregation (§3, §8.3).
//!
//! One auto-indexing service instance manages all databases in a region —
//! the compliance boundary: state and telemetry never leave it. What
//! *does* cross regions is anonymized aggregate telemetry, merged into
//! the global dashboards on-call engineers use.

use crate::metrics::MetricsRegistry;
use crate::telemetry::{EventKind, Telemetry};
use sqlmini::clock::Duration;
use std::collections::BTreeMap;

/// The §8.1 operational-statistics table, rolled up from a merged
/// [`MetricsRegistry`]. One snapshot summarizes a fleet (or region) at a
/// point in simulated time: backlog levels, implementation throughput,
/// revert rate with cause/source breakdowns, and chaos counters.
///
/// Built purely from the registry plus the simulated horizon, so a
/// parallel fleet run — whose merged registry is byte-identical to the
/// serial run's — yields a byte-identical snapshot and rendering.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DashboardSnapshot {
    /// Databases the registry saw (`fleet.tenants` gauge).
    pub databases: i64,
    /// Databases with auto-implementation enabled (`fleet.auto_tenants`).
    pub auto_databases: i64,
    /// Simulated time the metrics cover, in milliseconds.
    pub sim_millis: u64,
    /// Backlog: Active CREATE INDEX recommendations awaiting action.
    pub outstanding_creates: i64,
    /// Backlog: Active DROP INDEX recommendations awaiting action.
    pub outstanding_drops: i64,
    pub implemented_creates: u64,
    pub implemented_drops: u64,
    pub reverts: u64,
    /// Reverts by trigger (`revert.cause.*`).
    pub revert_causes: BTreeMap<String, u64>,
    /// Reverts by originating recommender (`revert.source.*`).
    pub reverts_by_source: BTreeMap<String, u64>,
    pub expired: u64,
    /// Queries measured in both the first and last observation windows.
    pub queries_measured: u64,
    /// Of those, queries whose mean CPU improved by ≥2× (§8.1).
    pub queries_improved_2x: u64,
    /// Databases whose fixed-count CPU cost at least halved (§8.1).
    pub dbs_cpu_halved: u64,
    pub recoveries: u64,
    pub quarantines: u64,
    pub poisoned: u64,
    pub incidents: u64,
    /// DTA sessions run (`dta.sessions`) / aborted on budget.
    pub dta_sessions: u64,
    pub dta_sessions_aborted: u64,
    /// What-if optimizer calls DTA actually issued (`dta.whatif.issued`).
    pub what_if_issued: u64,
    /// What-if calls answered from the cost cache (`dta.whatif.saved.cache`).
    pub what_if_saved_cache: u64,
    /// What-if calls skipped by relevance pruning (`dta.whatif.saved.pruning`).
    pub what_if_saved_pruning: u64,
    /// Control-plane passes the fleet scheduler ran (0 when the snapshot
    /// was built without scheduler context — see
    /// [`DashboardSnapshot::with_scheduler`]).
    pub sched_ticks_executed: u64,
    /// Control-plane passes the sparse scheduler proved unnecessary.
    pub sched_ticks_skipped: u64,
    /// Plan-selection cache hits across the fleet's tenant engines (0
    /// when built without driver context — see
    /// [`DashboardSnapshot::with_plan_cache`]).
    pub plan_cache_hits: u64,
    /// Plan-selection cache misses (compilations actually run).
    pub plan_cache_misses: u64,
    /// Cached plans discarded because the catalog fingerprint moved.
    pub plan_cache_invalidations: u64,
    /// Checkpoint frames written by journal compaction (0 when built
    /// without driver context — see [`DashboardSnapshot::with_journal`]).
    pub checkpoints_written: u64,
    /// Journal frames truncated away by compaction.
    pub frames_compacted: u64,
    /// Journal bytes reclaimed by compaction.
    pub journal_bytes_reclaimed: u64,
    /// Recoveries that stepped down the checkpoint fallback ladder.
    pub fallback_recoveries: u64,
    /// Tenants sampled into the policy-flight cohort (0 when the
    /// snapshot was built without flight context — see
    /// [`DashboardSnapshot::with_flight`]).
    pub flight_cohort: u64,
    /// Cohort tenants where the candidate policy measurably improved.
    pub flight_improved: u64,
    /// Cohort tenants where the candidate policy measurably regressed.
    pub flight_regressed: u64,
    /// Cohort tenants with no significant difference.
    pub flight_washed: u64,
    /// Cohort tenants discarded by the divergence guard.
    pub flight_discarded: u64,
    /// The region-level flight decision ("ship" / "abort"; empty when no
    /// flight context was attached).
    pub flight_verdict: String,
}

impl DashboardSnapshot {
    /// Roll a merged registry up into the ops table.
    pub fn from_metrics(metrics: &MetricsRegistry, sim_time: Duration) -> DashboardSnapshot {
        DashboardSnapshot {
            databases: metrics.gauge("fleet.tenants"),
            auto_databases: metrics.gauge("fleet.auto_tenants"),
            sim_millis: sim_time.millis(),
            outstanding_creates: metrics.gauge("outstanding.create"),
            outstanding_drops: metrics.gauge("outstanding.drop"),
            implemented_creates: metrics.counter("implement.succeeded.create_index"),
            implemented_drops: metrics.counter("implement.succeeded.drop_index"),
            reverts: metrics.counter("revert.succeeded"),
            revert_causes: metrics.breakdown("revert.cause."),
            reverts_by_source: metrics.breakdown("revert.source."),
            expired: metrics.counter("reco.expired"),
            queries_measured: metrics.counter("workload.queries_measured"),
            queries_improved_2x: metrics.counter("workload.queries_improved_2x"),
            dbs_cpu_halved: metrics.counter("workload.dbs_cpu_halved"),
            recoveries: metrics.counter("recovery.runs"),
            quarantines: metrics.counter("fleet.quarantines"),
            poisoned: metrics.counter("fleet.poisoned"),
            incidents: metrics.counter("incident.raised"),
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

    /// Attach fleet-scheduler counters (kept outside the canonical
    /// merged registry, so they arrive via this builder rather than
    /// `from_metrics`). Gates the "fleet scheduler" render block.
    pub fn with_scheduler(mut self, executed: u64, skipped: u64) -> DashboardSnapshot {
        self.sched_ticks_executed = executed;
        self.sched_ticks_skipped = skipped;
        self
    }

    /// Attach plan-selection cache counters (non-canonical driver
    /// bookkeeping, like the scheduler counters, so they arrive via this
    /// builder rather than `from_metrics`). Gates the "plan cache"
    /// render block.
    pub fn with_plan_cache(
        mut self,
        hits: u64,
        misses: u64,
        invalidations: u64,
    ) -> DashboardSnapshot {
        self.plan_cache_hits = hits;
        self.plan_cache_misses = misses;
        self.plan_cache_invalidations = invalidations;
        self
    }

    /// Attach journal/recovery counters (non-canonical driver
    /// bookkeeping — compaction changes journal geometry without
    /// changing canonical state). Gates the "journal / recovery"
    /// render block.
    pub fn with_journal(
        mut self,
        checkpoints_written: u64,
        frames_compacted: u64,
        bytes_reclaimed: u64,
        fallback_recoveries: u64,
    ) -> DashboardSnapshot {
        self.checkpoints_written = checkpoints_written;
        self.frames_compacted = frames_compacted;
        self.journal_bytes_reclaimed = bytes_reclaimed;
        self.fallback_recoveries = fallback_recoveries;
        self
    }

    /// Attach policy-flight verdict counters (flight state is journaled
    /// store state, not merged metrics, so it arrives via this builder
    /// rather than `from_metrics`). Gates the "flight" render block.
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
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.plan_cache_hits as f64 / total as f64
    }

    /// Fraction of scheduled control passes skipped as provably idle.
    pub fn sched_skip_fraction(&self) -> f64 {
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
    pub fn auto_fraction(&self) -> f64 {
        if self.databases <= 0 {
            return 0.0;
        }
        self.auto_databases as f64 / self.databases as f64
    }

    fn sim_weeks(&self) -> f64 {
        self.sim_millis as f64 / Duration::from_days(7).millis() as f64
    }

    /// Implemented creates per simulated week.
    pub fn weekly_creates(&self) -> f64 {
        let w = self.sim_weeks();
        if w <= 0.0 {
            return 0.0;
        }
        self.implemented_creates as f64 / w
    }

    /// Implemented drops per simulated week.
    pub fn weekly_drops(&self) -> f64 {
        let w = self.sim_weeks();
        if w <= 0.0 {
            return 0.0;
        }
        self.implemented_drops as f64 / w
    }

    /// Reverts ÷ implemented actions (§8.1 reports ~11%).
    pub fn revert_rate(&self) -> f64 {
        let implemented = self.implemented_creates + self.implemented_drops;
        if implemented == 0 {
            return 0.0;
        }
        self.reverts as f64 / implemented as f64
    }

    /// Outstanding drops per outstanding create (§8.1: drop backlog
    /// dwarfs the create backlog, ~3.4M vs ~250K).
    pub fn drop_backlog_ratio(&self) -> f64 {
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

/// The global dashboard: merged counters across regions, health rollups,
/// and the fleet-level figures §8.1 reports.
#[derive(Debug, Default)]
pub struct GlobalDashboard {
    merged: Telemetry,
    metrics: MetricsRegistry,
    per_region: BTreeMap<String, BTreeMap<EventKind, u64>>,
}

impl GlobalDashboard {
    pub fn new() -> GlobalDashboard {
        GlobalDashboard::default()
    }

    /// Ingest one aggregate row — a region's exported counters, or one
    /// shard's from a sharded region run: the counters become a
    /// per-"region" dashboard row (so the anomaly view works per row),
    /// and the row's merged metrics — when the caller hasn't already
    /// merged them at region level — fold into the global registry.
    pub fn ingest_shard(
        &mut self,
        name: impl Into<String>,
        counters: &BTreeMap<EventKind, u64>,
        metrics: Option<&MetricsRegistry>,
    ) {
        self.merged.merge_counters(counters);
        if let Some(m) = metrics {
            self.metrics.merge(m);
        }
        self.per_region.insert(name.into(), counters.clone());
    }

    /// Cross-region merged metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    pub fn global_count(&self, kind: EventKind) -> u64 {
        self.merged.count(kind)
    }

    pub fn global_revert_rate(&self) -> f64 {
        self.merged.revert_rate()
    }

    /// Regions whose revert rate exceeds `threshold` — the anomaly view
    /// engineers scan for recommender-quality drift.
    pub fn anomalous_regions(&self, threshold: f64) -> Vec<(String, f64)> {
        self.per_region
            .iter()
            .filter_map(|(name, counters)| {
                let implemented = counters
                    .get(&EventKind::ImplementSucceeded)
                    .copied()
                    .unwrap_or(0);
                if implemented == 0 {
                    return None;
                }
                let reverts = counters
                    .get(&EventKind::RevertSucceeded)
                    .copied()
                    .unwrap_or(0);
                let rate = reverts as f64 / implemented as f64;
                if rate > threshold {
                    Some((name.clone(), rate))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Render the dashboard summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet: {} recommendations, {} implemented, {} reverted ({:.1}%), {} incidents\n",
            self.global_count(EventKind::RecommendationCreated),
            self.global_count(EventKind::ImplementSucceeded),
            self.global_count(EventKind::RevertSucceeded),
            self.global_revert_rate() * 100.0,
            self.global_count(EventKind::IncidentRaised),
        ));
        for (region, counters) in &self.per_region {
            let implemented = counters
                .get(&EventKind::ImplementSucceeded)
                .copied()
                .unwrap_or(0);
            out.push_str(&format!("  {region}: {implemented} implemented\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::{ControlPlane, ManagedDb, PlanePolicy};
    use crate::state::{DbSettings, ServerSettings, Setting};
    use sqlmini::clock::{Duration, SimClock};
    use sqlmini::engine::{Database, DbConfig};
    use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
    use sqlmini::schema::{ColumnDef, ColumnId, TableDef};
    use sqlmini::types::{Value, ValueType};

    fn mdb(name: &str, seed: u64) -> (ManagedDb, QueryTemplate) {
        let mut db = Database::new(
            name,
            DbConfig {
                seed,
                ..DbConfig::default()
            },
            SimClock::new(),
        );
        let t = db
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("k", ValueType::Int),
                ],
            ))
            .unwrap();
        db.load_rows(
            t,
            (0..15_000i64).map(|i| vec![Value::Int(i), Value::Int(i % 300)]),
        );
        db.rebuild_stats(t);
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0)];
        let tpl = QueryTemplate::new(Statement::Select(q), 1);
        let settings = DbSettings {
            auto_create: Setting::On,
            auto_drop: Setting::On,
        };
        (ManagedDb::new(db, settings, ServerSettings::default()), tpl)
    }

    #[test]
    fn regions_are_isolated_but_dashboard_merges() {
        let policy = PlanePolicy {
            analysis_interval: Duration::from_hours(4),
            validation_min_wait: Duration::from_hours(2),
            ..PlanePolicy::default()
        };
        // One control plane per region, one database each.
        let (mdb_w, tpl_w) = mdb("w-db", 1);
        let (mdb_e, tpl_e) = mdb("e-db", 2);
        let mut west = (ControlPlane::new(policy.clone()), mdb_w, tpl_w);
        let mut east = (ControlPlane::new(policy), mdb_e, tpl_e);

        for h in 0..16u64 {
            for (plane, m, tpl) in [&mut west, &mut east] {
                for i in 0..20 {
                    m.db.execute(tpl, &[Value::Int(((h * 20 + i) % 300) as i64)])
                        .unwrap();
                }
                m.db.clock().advance(Duration::from_hours(1));
                plane.tick(m);
            }
        }
        let (west, east) = (west.0, east.0);

        // Each region has its own state; nothing crossed.
        assert!(!west.store.is_empty() && !east.store.is_empty());
        assert!(west.store.all().all(|r| r.database == "w-db"));
        assert!(east.store.all().all(|r| r.database == "e-db"));

        let mut dash = GlobalDashboard::new();
        for (name, plane) in [("west", &west), ("east", &east)] {
            dash.ingest_shard(name, plane.telemetry.counters(), Some(&plane.metrics));
        }
        let created = |p: &ControlPlane| p.telemetry.count(EventKind::RecommendationCreated);
        assert_eq!(
            dash.global_count(EventKind::RecommendationCreated),
            created(&west) + created(&east)
        );
        assert_eq!(
            dash.metrics(),
            &MetricsRegistry::merged([&west.metrics, &east.metrics])
        );
        let summary = dash.render();
        for (region, plane) in [("west", &west), ("east", &east)] {
            let implemented = plane.telemetry.count(EventKind::ImplementSucceeded);
            assert!(
                summary.contains(&format!("  {region}: {implemented} implemented\n")),
                "{summary}"
            );
        }
    }

    #[test]
    fn anomalous_region_detection() {
        let mut dash = GlobalDashboard::new();
        let counters = |implemented, reverted| {
            BTreeMap::from([
                (EventKind::ImplementSucceeded, implemented),
                (EventKind::RevertSucceeded, reverted),
            ])
        };
        dash.ingest_shard("bad", &counters(10, 4), None);
        dash.ingest_shard("good", &counters(10, 1), None);
        dash.ingest_shard("idle", &counters(0, 0), None);
        let anomalies = dash.anomalous_regions(0.2);
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].0, "bad");
        assert!((anomalies[0].1 - 0.4).abs() < 1e-9);
        assert!(dash.anomalous_regions(0.5).is_empty());
        assert_eq!(dash.global_count(EventKind::ImplementSucceeded), 20);
    }
}
