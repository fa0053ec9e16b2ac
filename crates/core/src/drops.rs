//! Drop-index recommendations (§5.4).
//!
//! Dropping is deliberately **not** workload-driven (an automatically
//! selected workload misses the occasional-but-important report query
//! whose index it would then condemn). Instead the analysis consumes
//! long-horizon usage statistics and applies conservative rules:
//!
//! * **Unused** indexes: no seeks/scans/lookups over the whole retention
//!   window but ongoing maintenance cost.
//! * **Duplicate** indexes: identical key columns (including order); all
//!   but one are candidates.
//! * **Exclusions**: indexes referenced by query hints or forced plans,
//!   and indexes enforcing application constraints, are never candidates
//!   — dropping them could break the application outright.

use crate::candidate::{RecoAction, RecoSource, Recommendation};
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::Database;
use sqlmini::schema::{IndexId, IndexOrigin};

/// Minimum maintenance events for an unused index to be worth dropping (a
/// dormant index on a read-only table costs nothing).
const MIN_UPDATES: u64 = 10;

/// Drop-analysis configuration.
#[derive(Debug, Clone)]
pub struct DropConfig {
    /// Usage must be absent for at least this long (the paper: ~60 days).
    pub observation_window: Duration,
}

impl Default for DropConfig {
    fn default() -> DropConfig {
        DropConfig {
            observation_window: Duration::from_days(60),
        }
    }
}

/// Why an index was proposed for dropping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    Unused,
    Duplicate { keep: IndexId },
}

/// A drop proposal with its rationale.
#[derive(Debug, Clone)]
pub struct DropProposal {
    pub recommendation: Recommendation,
    pub reason: DropReason,
}

/// Analyze a database for drop candidates.
///
/// `observed_since` is when usage observation began (the analysis refuses
/// to call an index unused before a full window has elapsed).
pub fn recommend_drops(
    db: &Database,
    cfg: &DropConfig,
    observed_since: Timestamp,
) -> Vec<DropProposal> {
    let now = db.clock().now();
    let mut out: Vec<DropProposal> = Vec::new();
    let window_complete = now.since(observed_since) >= cfg.observation_window;

    let indexes: Vec<(IndexId, sqlmini::schema::IndexDef)> = db
        .catalog()
        .indexes()
        .map(|(id, d)| (id, d.clone()))
        .collect();

    let protected =
        |def: &sqlmini::schema::IndexDef| def.hinted || def.origin == IndexOrigin::Constraint;

    // Unused analysis.
    if window_complete {
        for (id, def) in &indexes {
            if protected(def) {
                continue;
            }
            let usage = db.usage_dmv().usage(*id);
            if usage.reads() == 0 && usage.user_updates >= MIN_UPDATES {
                out.push(DropProposal {
                    recommendation: Recommendation {
                        action: RecoAction::DropIndex {
                            index: *id,
                            name: def.name.clone(),
                        },
                        source: RecoSource::DropAnalysis,
                        estimated_benefit: usage.user_updates as f64,
                        estimated_improvement: 0.0,
                        estimated_size_bytes: db.index_size_bytes(*id),
                        impacted_queries: vec![],
                        generated_at: now,
                    },
                    reason: DropReason::Unused,
                });
            }
        }
    }

    // Duplicate analysis: group by (table, key columns); keep the best.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, (_, def)) in indexes.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|g| indexes[g[0]].1.duplicate_of(def))
        {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    for group in groups.into_iter().filter(|g| g.len() > 1) {
        // Keep the one with the most includes (most covering), then
        // most reads; protected members are always kept.
        let keep = *group
            .iter()
            .max_by_key(|&&i| {
                let (id, def) = &indexes[i];
                (
                    protected(def) as usize,
                    def.included_columns.len(),
                    db.usage_dmv().usage(*id).reads(),
                )
            })
            .expect("non-empty group");
        for &i in &group {
            if i == keep {
                continue;
            }
            let (id, def) = &indexes[i];
            if protected(def) {
                continue;
            }
            // Avoid double-reporting an index already flagged unused.
            if out.iter().any(|p| match &p.recommendation.action {
                RecoAction::DropIndex { index, .. } => index == id,
                _ => false,
            }) {
                continue;
            }
            out.push(DropProposal {
                recommendation: Recommendation {
                    action: RecoAction::DropIndex {
                        index: *id,
                        name: def.name.clone(),
                    },
                    source: RecoSource::DropAnalysis,
                    estimated_benefit: db.usage_dmv().usage(*id).user_updates as f64,
                    estimated_improvement: 0.0,
                    estimated_size_bytes: db.index_size_bytes(*id),
                    impacted_queries: vec![],
                    generated_at: now,
                },
                reason: DropReason::Duplicate {
                    keep: indexes[keep].0,
                },
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlmini::clock::SimClock;
    use sqlmini::engine::DbConfig;
    use sqlmini::query::{CmpOp, Predicate, QueryTemplate, Scalar, SelectQuery, Statement};
    use sqlmini::schema::{ColumnDef, ColumnId, IndexDef, TableDef, TableId};
    use sqlmini::types::{Value, ValueType};

    fn db() -> (Database, TableId) {
        let mut db = Database::new("d", DbConfig::default(), SimClock::new());
        let t = db
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("a", ValueType::Int),
                    ColumnDef::new("b", ValueType::Int),
                ],
            ))
            .unwrap();
        db.load_rows(
            t,
            (0..3000i64).map(|i| vec![Value::Int(i), Value::Int(i % 30), Value::Int(i % 7)]),
        );
        db.rebuild_stats(t);
        (db, t)
    }

    fn advance_past_window(db: &Database) {
        db.clock().advance(Duration::from_days(61));
    }

    fn churn(db: &mut Database, t: TableId, n: usize) {
        let ins = QueryTemplate::new(
            Statement::Insert {
                table: t,
                values: vec![
                    Scalar::Param(0),
                    Scalar::Lit(Value::Int(0)),
                    Scalar::Lit(Value::Int(0)),
                ],
            },
            1,
        );
        for i in 0..n {
            db.execute(&ins, &[Value::Int(10_000 + i as i64)]).unwrap();
        }
    }

    #[test]
    fn unused_index_with_maintenance_is_flagged() {
        let (mut db, t) = db();
        db.create_index(IndexDef::new("dead", t, vec![ColumnId(2)], vec![]))
            .unwrap();
        churn(&mut db, t, 20);
        advance_past_window(&db);
        let props = recommend_drops(&db, &DropConfig::default(), Timestamp::EPOCH);
        assert_eq!(props.len(), 1, "{props:?}");
        assert_eq!(props[0].reason, DropReason::Unused);
    }

    #[test]
    fn used_index_not_flagged() {
        let (mut db, t) = db();
        db.create_index(IndexDef::new(
            "live",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0)],
        ))
        .unwrap();
        churn(&mut db, t, 20);
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::cmp(ColumnId(1), CmpOp::Eq, 5i64)];
        q.projection = vec![ColumnId(0)];
        let tpl = QueryTemplate::new(Statement::Select(q), 0);
        db.execute(&tpl, &[]).unwrap();
        advance_past_window(&db);
        let props = recommend_drops(&db, &DropConfig::default(), Timestamp::EPOCH);
        assert!(props.is_empty(), "{props:?}");
    }

    #[test]
    fn window_must_elapse_before_unused_flagging() {
        let (mut db, t) = db();
        db.create_index(IndexDef::new("dead", t, vec![ColumnId(2)], vec![]))
            .unwrap();
        churn(&mut db, t, 20);
        // Only 1 day of observation.
        db.clock().advance(Duration::from_days(1));
        let props = recommend_drops(&db, &DropConfig::default(), Timestamp::EPOCH);
        assert!(props.is_empty(), "premature unused flagging: {props:?}");
    }

    #[test]
    fn dormant_index_without_maintenance_ignored() {
        let (mut db, t) = db();
        db.create_index(IndexDef::new("dormant", t, vec![ColumnId(2)], vec![]))
            .unwrap();
        advance_past_window(&db);
        let props = recommend_drops(&db, &DropConfig::default(), Timestamp::EPOCH);
        assert!(props.is_empty(), "no maintenance cost, nothing to save");
    }

    #[test]
    fn duplicates_flagged_keeping_most_covering() {
        let (mut db, t) = db();
        let (wide, _) = db
            .create_index(IndexDef::new(
                "wide",
                t,
                vec![ColumnId(1)],
                vec![ColumnId(0), ColumnId(2)],
            ))
            .unwrap();
        db.create_index(IndexDef::new("narrow", t, vec![ColumnId(1)], vec![]))
            .unwrap();
        let props = recommend_drops(&db, &DropConfig::default(), Timestamp::EPOCH);
        assert_eq!(props.len(), 1);
        match (&props[0].recommendation.action, props[0].reason) {
            (RecoAction::DropIndex { name, .. }, DropReason::Duplicate { keep }) => {
                assert_eq!(name, "narrow");
                assert_eq!(keep, wide);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hinted_and_constraint_indexes_protected() {
        let (mut db, t) = db();
        db.create_index(IndexDef::new("hinted", t, vec![ColumnId(2)], vec![]).hinted())
            .unwrap();
        db.create_index(
            IndexDef::new("constraint", t, vec![ColumnId(1)], vec![])
                .with_origin(IndexOrigin::Constraint),
        )
        .unwrap();
        churn(&mut db, t, 50);
        advance_past_window(&db);
        let props = recommend_drops(&db, &DropConfig::default(), Timestamp::EPOCH);
        assert!(props.is_empty(), "protected indexes proposed: {props:?}");
    }

    #[test]
    fn duplicate_of_hinted_drops_the_other_one() {
        let (mut db, t) = db();
        db.create_index(IndexDef::new("hinted_dup", t, vec![ColumnId(1)], vec![]).hinted())
            .unwrap();
        db.create_index(IndexDef::new(
            "plain_dup",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0)],
        ))
        .unwrap();
        let props = recommend_drops(&db, &DropConfig::default(), Timestamp::EPOCH);
        // Even though plain_dup covers more, the hinted one must be kept.
        assert_eq!(props.len(), 1);
        match &props[0].recommendation.action {
            RecoAction::DropIndex { name, .. } => assert_eq!(name, "plain_dup"),
            other => panic!("{other:?}"),
        }
    }
}
