//! The Missing-Indexes-based recommender (§5.2).
//!
//! Pipeline, exactly as the paper lays it out:
//!
//! 1. **Snapshots**: the MI DMV resets on restart/failover/schema change,
//!    so the recommender keeps periodic snapshots and folds them into a
//!    monotone cumulative impact series per candidate.
//! 2. **Candidate definition**: EQUALITY columns become keys, one
//!    INEQUALITY column joins the key, the rest become INCLUDEs
//!    ([`IndexCandidate::from_missing_index_key`]).
//! 3. **Ad-hoc filter**: candidates with too few triggering optimizations
//!    are dropped.
//! 4. **Slope hypothesis test**: a statistically-robust check that the
//!    cumulative impact is *growing* — a one-sided t-test on the
//!    regression slope being above a threshold ([`crate::stats`]).
//! 5. **Merging**: prefix-compatible candidates are merged when the
//!    aggregate benefit improves ([`crate::merging`]).
//! 6. **Classifier**: a model trained on past validation outcomes filters
//!    expected-low-impact candidates ([`crate::classifier`]).
//!
//! The result is the top-K recommendations by impact. Because this whole
//! analysis runs off DMV snapshots with **no extra optimizer calls**, it
//! is cheap enough for Basic-tier databases — the complementary role MI
//! plays opposite DTA (§5.1.1). The flip side, preserved faithfully: MI
//! never sees index maintenance costs, join/group/order benefits, and its
//! benefit numbers are raw optimizer estimates.

use crate::candidate::{IndexCandidate, RecoAction, RecoSource, Recommendation};
use crate::classifier::{CandidateFeatures, ImpactClassifier};
use crate::merging::merge_candidates;
use crate::stats::slope_above_threshold;
use sqlmini::clock::Timestamp;
use sqlmini::dmv::MissingIndexKey;
use sqlmini::engine::Database;
use sqlmini::index::SecondaryIndex;
use std::collections::BTreeMap;

/// Minimum cumulative optimizations that must have requested a candidate
/// (filters ad-hoc queries).
const MIN_SEEKS: u64 = 3;

/// Minimum cumulative impact-score growth per hour for the slope test.
const SLOPE_THRESHOLD_PER_HOUR: f64 = 1.0;

/// One-sided significance level for the slope test.
const SLOPE_ALPHA: f64 = 0.05;

/// Minimum snapshots before a candidate can be recommended.
const MIN_SNAPSHOTS: usize = 3;

/// The slope test runs over only the most recent snapshots, so a candidate
/// that was hot long ago but has flat-lined is rejected.
const SLOPE_WINDOW: usize = 8;

/// Configuration of the MI recommender.
#[derive(Debug, Clone)]
pub struct MiConfig {
    pub max_recommendations: usize,
    /// Ablation knobs.
    pub use_merging: bool,
    pub use_classifier: bool,
}

impl Default for MiConfig {
    fn default() -> MiConfig {
        MiConfig {
            max_recommendations: 5,
            use_merging: true,
            use_classifier: true,
        }
    }
}

/// One point of a candidate's cumulative series.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SeriesPoint {
    at: Timestamp,
    cum_impact: f64,
    cum_seeks: u64,
    avg_impact_pct: f64,
}

/// Reset-tolerant store of MI DMV snapshots (§5.2's "periodic snapshots
/// ... while keeping the overhead low").
#[derive(Debug, Clone, Default)]
pub struct MiSnapshotStore {
    series: BTreeMap<MissingIndexKey, Vec<SeriesPoint>>,
    /// Raw values at the last snapshot (to detect and bridge resets).
    last_raw: BTreeMap<MissingIndexKey, (f64, u64)>,
    /// Accumulated base from before DMV resets.
    base: BTreeMap<MissingIndexKey, (f64, u64)>,
    last_reset_count: u64,
    pub snapshots_taken: u64,
}

impl MiSnapshotStore {
    pub fn new() -> MiSnapshotStore {
        MiSnapshotStore::default()
    }

    /// Record a snapshot of the database's MI DMV.
    pub fn take_snapshot(&mut self, db: &Database) {
        let now = db.clock().now();
        let dmv = db.mi_dmv();
        if dmv.resets != self.last_reset_count {
            // The DMV reset since our last visit: everything it had
            // accumulated is gone, so fold the last raw values into the
            // persistent base.
            for (key, (imp, seeks)) in std::mem::take(&mut self.last_raw) {
                let b = self.base.entry(key).or_insert((0.0, 0));
                b.0 += imp;
                b.1 += seeks;
            }
            self.last_reset_count = dmv.resets;
        }
        for (key, stats) in dmv.snapshot() {
            let raw_impact = stats.impact_score();
            let raw_seeks = stats.user_seeks;
            self.last_raw.insert(key.clone(), (raw_impact, raw_seeks));
            let (base_imp, base_seeks) = self.base.get(&key).copied().unwrap_or((0.0, 0));
            let point = SeriesPoint {
                at: now,
                cum_impact: base_imp + raw_impact,
                cum_seeks: base_seeks + raw_seeks,
                avg_impact_pct: stats.avg_impact_pct,
            };
            self.series.entry(key).or_default().push(point);
        }
        self.snapshots_taken += 1;
    }

    /// Candidates tracked so far.
    pub fn tracked(&self) -> usize {
        self.series.len()
    }
}

/// Outcome detail for observability: why candidates were kept or filtered.
#[derive(Debug, Clone, Default)]
pub struct MiAnalysis {
    pub considered: usize,
    pub filtered_few_seeks: usize,
    pub filtered_slope: usize,
    pub filtered_existing: usize,
    pub filtered_classifier: usize,
    pub merged_away: usize,
    pub recommendations: Vec<Recommendation>,
}

/// Run the MI recommendation pipeline over the accumulated snapshots.
pub fn recommend(
    db: &Database,
    store: &MiSnapshotStore,
    cfg: &MiConfig,
    classifier: &ImpactClassifier,
) -> MiAnalysis {
    let mut analysis = MiAnalysis::default();
    let now = db.clock().now();
    let existing: Vec<_> = db.catalog().indexes().map(|(_, d)| d.clone()).collect();

    let mut candidates: Vec<IndexCandidate> = Vec::new();
    for (key, series) in &store.series {
        analysis.considered += 1;
        let last = series.last().expect("non-empty series");
        if last.cum_seeks < MIN_SEEKS {
            analysis.filtered_few_seeks += 1;
            continue;
        }
        if series.len() < MIN_SNAPSHOTS {
            analysis.filtered_slope += 1;
            continue;
        }
        // Slope test on (hours, cumulative impact) over the most recent
        // snapshots only — growth must be *ongoing*.
        let recent = &series[series.len().saturating_sub(SLOPE_WINDOW)..];
        let t0 = recent[0].at;
        let points: Vec<(f64, f64)> = recent
            .iter()
            .map(|p| (p.at.since(t0).as_hours_f64(), p.cum_impact))
            .collect();
        match slope_above_threshold(&points, SLOPE_THRESHOLD_PER_HOUR) {
            Some(st) if st.p_greater < SLOPE_ALPHA => {}
            _ => {
                analysis.filtered_slope += 1;
                continue;
            }
        }
        let mut cand = IndexCandidate::from_missing_index_key(key);
        cand.benefit = last.cum_impact;
        cand.avg_impact_pct = last.avg_impact_pct;
        cand.demand = last.cum_seeks;
        // Skip candidates an existing index already serves.
        if existing.iter().any(|ix| cand.served_by(ix)) {
            analysis.filtered_existing += 1;
            continue;
        }
        candidates.push(cand);
    }

    if cfg.use_merging {
        let before = candidates.len();
        candidates = merge_candidates(candidates);
        analysis.merged_away = before - candidates.len();
    }

    if cfg.use_classifier {
        let before = candidates.len();
        candidates.retain(|c| {
            let rows = db.table_rows(c.table) as f64;
            let size = estimate_size(db, c);
            classifier.accept(&CandidateFeatures {
                est_impact_pct: c.avg_impact_pct,
                log_table_rows: rows.max(1.0).log10(),
                log_index_size: (size as f64).max(1.0).log10(),
                log_demand: (1.0 + c.demand as f64).log10(),
                n_key_columns: c.key_columns.len() as f64,
            })
        });
        analysis.filtered_classifier = before - candidates.len();
    }

    candidates.sort_by(|a, b| {
        b.benefit
            .partial_cmp(&a.benefit)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    candidates.truncate(cfg.max_recommendations);

    analysis.recommendations = candidates
        .into_iter()
        .map(|c| {
            let size = estimate_size(db, &c);
            Recommendation {
                action: RecoAction::CreateIndex {
                    def: c.to_index_def(),
                },
                source: RecoSource::MissingIndex,
                estimated_benefit: c.benefit,
                estimated_improvement: (c.avg_impact_pct / 100.0).clamp(0.0, 1.0),
                estimated_size_bytes: size,
                impacted_queries: c.impacted_queries,
                generated_at: now,
            }
        })
        .collect();
    analysis
}

fn estimate_size(db: &Database, c: &IndexCandidate) -> u64 {
    match db.catalog().table(c.table) {
        Ok(tdef) => {
            SecondaryIndex::estimate_size_bytes(&c.to_index_def(), tdef, db.table_rows(c.table))
        }
        Err(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlmini::clock::{Duration, SimClock};
    use sqlmini::engine::DbConfig;
    use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
    use sqlmini::schema::{ColumnDef, ColumnId, TableDef, TableId};
    use sqlmini::types::{Value, ValueType};

    fn db_with_workload() -> (Database, QueryTemplate, TableId) {
        let clock = SimClock::new();
        let mut db = Database::new("t", DbConfig::default(), clock);
        let t = db
            .create_table(TableDef::new(
                "orders",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("customer_id", ValueType::Int),
                    ColumnDef::new("total", ValueType::Float),
                ],
            ))
            .unwrap();
        db.load_rows(
            t,
            (0..20_000i64).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 400),
                    Value::Float((i % 977) as f64),
                ]
            }),
        );
        db.rebuild_stats(t);
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0), ColumnId(2)];
        (db, QueryTemplate::new(Statement::Select(q), 1), t)
    }

    /// Drive the workload and take snapshots over several hours.
    fn accumulate(db: &mut Database, tpl: &QueryTemplate, store: &mut MiSnapshotStore, hours: u64) {
        for h in 0..hours {
            for i in 0..20 {
                db.execute(tpl, &[Value::Int(((h * 20 + i) % 400) as i64)])
                    .unwrap();
            }
            db.clock().advance(Duration::from_hours(1));
            store.take_snapshot(db);
        }
    }

    #[test]
    fn recommends_growing_candidate() {
        let (mut db, tpl, t) = db_with_workload();
        let mut store = MiSnapshotStore::new();
        accumulate(&mut db, &tpl, &mut store, 6);
        let analysis = recommend(
            &db,
            &store,
            &MiConfig::default(),
            &ImpactClassifier::default(),
        );
        assert_eq!(analysis.recommendations.len(), 1, "analysis: {analysis:?}");
        let r = &analysis.recommendations[0];
        match &r.action {
            RecoAction::CreateIndex { def } => {
                assert_eq!(def.table, t);
                assert_eq!(def.key_columns, vec![ColumnId(1)]);
            }
            _ => panic!(),
        }
        assert!(r.estimated_benefit > 0.0);
        assert!(r.estimated_size_bytes > 0);
    }

    #[test]
    fn survives_dmv_reset() {
        let (mut db, tpl, _) = db_with_workload();
        let mut store = MiSnapshotStore::new();
        accumulate(&mut db, &tpl, &mut store, 3);
        let before_reset = store
            .series
            .values()
            .next()
            .unwrap()
            .last()
            .unwrap()
            .cum_impact;
        db.restart(); // wipes the DMV
        accumulate(&mut db, &tpl, &mut store, 3);
        let series = store.series.values().next().unwrap();
        let last = series.last().unwrap();
        assert!(
            last.cum_impact > before_reset,
            "cumulative impact must keep growing across resets: {} vs {before_reset}",
            last.cum_impact
        );
        // Monotone series.
        for w in series.windows(2) {
            assert!(w[1].cum_impact + 1e-9 >= w[0].cum_impact);
        }
        let analysis = recommend(
            &db,
            &store,
            &MiConfig::default(),
            &ImpactClassifier::default(),
        );
        assert_eq!(analysis.recommendations.len(), 1);
    }

    #[test]
    fn few_seeks_filtered() {
        let (mut db, tpl, _) = db_with_workload();
        let mut store = MiSnapshotStore::new();
        // Only one execution → one seek.
        db.execute(&tpl, &[Value::Int(3)]).unwrap();
        db.clock().advance(Duration::from_hours(1));
        store.take_snapshot(&db);
        db.clock().advance(Duration::from_hours(1));
        store.take_snapshot(&db);
        db.clock().advance(Duration::from_hours(1));
        store.take_snapshot(&db);
        let analysis = recommend(
            &db,
            &store,
            &MiConfig::default(),
            &ImpactClassifier::default(),
        );
        assert!(analysis.recommendations.is_empty());
        assert_eq!(analysis.filtered_few_seeks, 1);
    }

    #[test]
    fn existing_index_suppresses_candidate() {
        let (mut db, tpl, t) = db_with_workload();
        let mut store = MiSnapshotStore::new();
        accumulate(&mut db, &tpl, &mut store, 4);
        // Create the very index the candidate proposes.
        db.create_index(sqlmini::schema::IndexDef::new(
            "already",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(2)],
        ))
        .unwrap();
        let analysis = recommend(
            &db,
            &store,
            &MiConfig::default(),
            &ImpactClassifier::default(),
        );
        assert!(analysis.recommendations.is_empty(), "{analysis:?}");
        assert_eq!(analysis.filtered_existing, 1);
    }

    #[test]
    fn stale_candidate_fails_slope_test() {
        let (mut db, tpl, _) = db_with_workload();
        let mut store = MiSnapshotStore::new();
        accumulate(&mut db, &tpl, &mut store, 3);
        // Workload stops; many more snapshots with zero growth.
        for _ in 0..12 {
            db.clock().advance(Duration::from_hours(1));
            store.take_snapshot(&db);
        }
        let analysis = recommend(
            &db,
            &store,
            &MiConfig::default(),
            &ImpactClassifier::default(),
        );
        assert!(
            analysis.recommendations.is_empty(),
            "flat-lined candidate must fail the slope test: {analysis:?}"
        );
        assert_eq!(analysis.filtered_slope, 1);
    }

    #[test]
    fn max_recommendations_cap() {
        let (mut db, _, t) = db_with_workload();
        // Several distinct candidates: queries on different columns.
        let mut store = MiSnapshotStore::new();
        let mut tpls = Vec::new();
        for col in [1u32, 2] {
            let mut q = SelectQuery::new(t);
            q.predicates = vec![Predicate::param(ColumnId(col), CmpOp::Eq, 0)];
            q.projection = vec![ColumnId(0)];
            tpls.push(QueryTemplate::new(Statement::Select(q), 1));
        }
        for h in 0..6 {
            for tpl in &tpls {
                for i in 0..10 {
                    db.execute(tpl, &[Value::Int((h * 10 + i) as i64)]).unwrap();
                }
            }
            db.clock().advance(Duration::from_hours(1));
            store.take_snapshot(&db);
        }
        let cfg = MiConfig {
            max_recommendations: 1,
            ..MiConfig::default()
        };
        let analysis = recommend(&db, &store, &cfg, &ImpactClassifier::default());
        assert_eq!(analysis.recommendations.len(), 1);
    }
}
