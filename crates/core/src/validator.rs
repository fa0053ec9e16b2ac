//! Validation of implemented index changes (§6) — the component that lets
//! the service tolerate optimizer misestimates by **measuring** instead of
//! trusting, and auto-reverting regressions.
//!
//! Faithful to the paper's three design rules:
//!
//! 1. **Logical metrics only**: CPU time and logical reads are compared;
//!    duration is reported but never drives a verdict (physical metrics
//!    carry too much concurrency noise).
//! 2. **Plan-change gating**: only statements that executed both before
//!    and after the change *and whose plan change involves the index* are
//!    considered — after a create, the new plan must reference the index;
//!    after a drop, the old plan must have referenced it.
//! 3. **Welch t-test significance** on Query Store's (count, mean,
//!    stddev) aggregates; a regression must be both statistically
//!    significant and large enough to matter.
//!
//! Two revert policies are provided, exactly as §6 discusses: the
//! conservative **per-statement** trigger (any significant regression on
//! a statement consuming a meaningful resource share reverts) and the
//! **aggregate** trigger (revert only when the workload as a whole is
//! worse, accepting individual losers offset by winners).

use crate::stats::{welch_t_test, Sample, WelchResult};
use sqlmini::clock::Timestamp;
use sqlmini::engine::Database;
use sqlmini::query::QueryId;
use sqlmini::querystore::{ExecAgg, Metric};

/// Whether the validated change created or dropped the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    Created,
    Dropped,
}

/// Revert-trigger policy (§6's two settings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevertPolicy {
    /// Any significant regression on any significant statement reverts.
    PerStatement,
    /// Revert only on aggregate (weighted) regression.
    Aggregate,
}

/// Relative improvement of the mean that counts as an improvement.
const IMPROVEMENT_THRESHOLD: f64 = 0.1;

/// Validator configuration.
#[derive(Debug, Clone)]
pub struct ValidatorConfig {
    /// Significance level for the Welch tests.
    pub alpha: f64,
    /// Minimum executions on each side for a statement to be testable.
    pub min_executions: u64,
    /// Relative worsening of the mean that counts as a regression (e.g.
    /// 0.2 = 20% slower), beyond significance.
    pub regression_threshold: f64,
    /// Minimum fraction of the database's before-window resources a
    /// statement must represent for its regression to trigger a revert.
    pub min_resource_frac: f64,
    pub policy: RevertPolicy,
}

impl Default for ValidatorConfig {
    fn default() -> ValidatorConfig {
        ValidatorConfig {
            alpha: 0.05,
            min_executions: 5,
            regression_threshold: 0.2,
            min_resource_frac: 0.01,
            policy: RevertPolicy::PerStatement,
        }
    }
}

/// Verdict of a validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Statistically significant improvement; keep the change.
    Improved,
    /// Statistically significant regression; revert the change.
    Regressed,
    /// Statements qualified but nothing significant either way.
    Inconclusive,
    /// No statement qualified (no plan change observed / too few
    /// executions).
    NoData,
}

/// Per-statement validation detail.
#[derive(Debug, Clone)]
pub struct StatementValidation {
    pub query_id: QueryId,
    /// Before/after samples of CPU time.
    pub cpu_before: Sample,
    pub cpu_after: Sample,
    pub cpu_test: Option<WelchResult>,
    /// Relative CPU change: (after - before) / before.
    pub cpu_change: f64,
    /// Statement's share of before-window database CPU.
    resource_frac: f64,
    significant_regression: bool,
    significant_improvement: bool,
}

/// Validation result.
#[derive(Debug, Clone)]
pub struct ValidationOutcome {
    pub verdict: Verdict,
    pub statements: Vec<StatementValidation>,
    /// Aggregate weighted CPU change across qualified statements.
    pub aggregate_cpu_change: f64,
}

fn sample_of(agg: &ExecAgg, metric: Metric) -> Sample {
    let m = agg.metric(metric);
    Sample {
        mean: m.mean(),
        variance: m.variance(),
        count: m.count,
    }
}

/// Validate an index change by comparing Query Store execution statistics
/// between `before = [b0, b1)` and `after = [a0, a1)`.
pub fn validate(
    db: &Database,
    index_name: &str,
    kind: ChangeKind,
    before: (Timestamp, Timestamp),
    after: (Timestamp, Timestamp),
    cfg: &ValidatorConfig,
) -> ValidationOutcome {
    let qs = db.query_store();
    // Align windows to Query Store interval boundaries, shrinking them so
    // the mixed interval containing the change itself is excluded from
    // both sides.
    let before = (qs.align_up(before.0), qs.align_down(before.1));
    let after = (qs.align_up(after.0), after.1.max(qs.align_up(after.0)));
    let total_before_cpu = qs.total_resources(Metric::CpuTime, before.0, before.1);
    let mut statements = Vec::new();
    let plan_refs_index =
        |p: &sqlmini::plan::PlanId| qs.plan_index_refs(*p).iter().any(|n| n == index_name);

    for (qid, _info) in qs.known_queries() {
        // Both gating rules below need a plan of this query that
        // references the index; a query none of whose plans ever did
        // cannot qualify, so neither window is read for it.
        if !qs.plan_history(qid).iter().any(plan_refs_index) {
            continue;
        }
        let before_plans = qs.plans_in_window(qid, before.0, before.1);
        let after_plans = qs.plans_in_window(qid, after.0, after.1);
        if before_plans.is_empty() || after_plans.is_empty() {
            continue;
        }

        // Plan-change gating (§6 rule 2).
        let qualifies = match kind {
            ChangeKind::Created => {
                // New plan references the index; it wasn't used before.
                after_plans.iter().any(|(p, _)| plan_refs_index(p))
                    && !before_plans.iter().any(|(p, _)| plan_refs_index(p))
            }
            ChangeKind::Dropped => {
                // Old plan referenced the index; new plans cannot.
                before_plans.iter().any(|(p, _)| plan_refs_index(p))
                    && !after_plans.iter().any(|(p, _)| plan_refs_index(p))
            }
        };
        if !qualifies {
            continue;
        }

        // Compare all-before vs the changed plan(s) after.
        let mut before_agg = ExecAgg::default();
        for (_, a) in &before_plans {
            before_agg.merge(a);
        }
        let mut after_agg = ExecAgg::default();
        match kind {
            ChangeKind::Created => {
                for (p, a) in &after_plans {
                    if plan_refs_index(p) {
                        after_agg.merge(a);
                    }
                }
            }
            ChangeKind::Dropped => {
                for (_, a) in &after_plans {
                    after_agg.merge(a);
                }
            }
        }

        let cpu_before = sample_of(&before_agg, Metric::CpuTime);
        let cpu_after = sample_of(&after_agg, Metric::CpuTime);
        if cpu_before.count < cfg.min_executions || cpu_after.count < cfg.min_executions {
            continue;
        }
        let reads_before = sample_of(&before_agg, Metric::LogicalReads);
        let reads_after = sample_of(&after_agg, Metric::LogicalReads);

        let cpu_test = welch_t_test(&cpu_before, &cpu_after);
        let reads_test = welch_t_test(&reads_before, &reads_after);
        let cpu_change = if cpu_before.mean > 0.0 {
            (cpu_after.mean - cpu_before.mean) / cpu_before.mean
        } else {
            0.0
        };
        let reads_change = if reads_before.mean > 0.0 {
            (reads_after.mean - reads_before.mean) / reads_before.mean
        } else {
            0.0
        };
        let resource_frac = if total_before_cpu > 0.0 {
            before_agg.cpu.sum / total_before_cpu
        } else {
            0.0
        };

        // Regression: either logical metric significantly and materially
        // worse. Improvement: CPU significantly and materially better.
        let sig_worse = |t: &Option<WelchResult>, change: f64| {
            t.as_ref()
                .is_some_and(|r| r.p_b_greater < cfg.alpha && change > cfg.regression_threshold)
        };
        let sig_better = |t: &Option<WelchResult>, change: f64| {
            t.as_ref().is_some_and(|r| {
                (1.0 - r.p_b_greater) < cfg.alpha && change < -IMPROVEMENT_THRESHOLD
            })
        };
        let significant_regression =
            sig_worse(&cpu_test, cpu_change) || sig_worse(&reads_test, reads_change);
        let significant_improvement =
            sig_better(&cpu_test, cpu_change) || sig_better(&reads_test, reads_change);

        statements.push(StatementValidation {
            query_id: qid,
            cpu_before,
            cpu_after,
            cpu_test,
            cpu_change,
            resource_frac,
            significant_regression,
            significant_improvement,
        });
    }

    // Aggregate change, weighted by before-window execution counts (the
    // fixed-execution-count normalization of §7.3).
    let (mut agg_before, mut agg_after) = (0.0f64, 0.0f64);
    for s in &statements {
        let w = s.cpu_before.count as f64;
        agg_before += w * s.cpu_before.mean;
        agg_after += w * s.cpu_after.mean;
    }
    let aggregate_cpu_change = if agg_before > 0.0 {
        (agg_after - agg_before) / agg_before
    } else {
        0.0
    };

    let verdict = if statements.is_empty() {
        Verdict::NoData
    } else {
        match cfg.policy {
            RevertPolicy::PerStatement => {
                let regressed = statements
                    .iter()
                    .any(|s| s.significant_regression && s.resource_frac >= cfg.min_resource_frac);
                if regressed {
                    Verdict::Regressed
                } else if statements.iter().any(|s| s.significant_improvement) {
                    Verdict::Improved
                } else {
                    Verdict::Inconclusive
                }
            }
            RevertPolicy::Aggregate => {
                if aggregate_cpu_change > cfg.regression_threshold
                    && statements.iter().any(|s| s.significant_regression)
                {
                    Verdict::Regressed
                } else if aggregate_cpu_change < -IMPROVEMENT_THRESHOLD
                    && statements.iter().any(|s| s.significant_improvement)
                {
                    Verdict::Improved
                } else {
                    Verdict::Inconclusive
                }
            }
        }
    };

    ValidationOutcome {
        verdict,
        statements,
        aggregate_cpu_change,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlmini::clock::{Duration, SimClock};
    use sqlmini::engine::{Database, DbConfig};
    use sqlmini::query::{CmpOp, Predicate, QueryTemplate, Scalar, SelectQuery, Statement};
    use sqlmini::schema::{ColumnDef, ColumnId, IndexDef, TableDef, TableId};
    use sqlmini::types::{Value, ValueType};

    fn orders_db() -> (Database, TableId) {
        let mut db = Database::new("v", DbConfig::default(), SimClock::new());
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
            (0..10_000i64).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 300),
                    Value::Float((i % 800) as f64),
                ]
            }),
        );
        db.rebuild_stats(t);
        (db, t)
    }

    fn select_tpl(t: TableId) -> QueryTemplate {
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0), ColumnId(2)];
        QueryTemplate::new(Statement::Select(q), 1)
    }

    fn run_phase(db: &mut Database, tpl: &QueryTemplate, n: usize) -> (Timestamp, Timestamp) {
        let start = db.clock().now();
        for i in 0..n {
            db.execute(tpl, &[Value::Int((i % 300) as i64)]).unwrap();
            db.clock().advance(Duration::from_mins(2));
        }
        (start, db.clock().now())
    }

    #[test]
    fn good_index_validates_improved() {
        let (mut db, t) = orders_db();
        let tpl = select_tpl(t);
        let before = run_phase(&mut db, &tpl, 40);
        db.create_index(IndexDef::new(
            "auto_good",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(2)],
        ))
        .unwrap();
        let after = run_phase(&mut db, &tpl, 40);
        let out = validate(
            &db,
            "auto_good",
            ChangeKind::Created,
            before,
            after,
            &ValidatorConfig::default(),
        );
        assert_eq!(out.verdict, Verdict::Improved, "{out:?}");
        assert_eq!(out.statements.len(), 1);
        assert!(out.statements[0].cpu_change < -0.5);
        assert!(out.aggregate_cpu_change < -0.5);
    }

    #[test]
    fn unrelated_index_yields_no_data() {
        let (mut db, t) = orders_db();
        let tpl = select_tpl(t);
        let before = run_phase(&mut db, &tpl, 20);
        // Index on a column the query doesn't filter on: plan unchanged.
        db.create_index(IndexDef::new(
            "auto_unrelated",
            t,
            vec![ColumnId(2)],
            vec![],
        ))
        .unwrap();
        let after = run_phase(&mut db, &tpl, 20);
        let out = validate(
            &db,
            "auto_unrelated",
            ChangeKind::Created,
            before,
            after,
            &ValidatorConfig::default(),
        );
        assert_eq!(out.verdict, Verdict::NoData, "{out:?}");
    }

    #[test]
    fn write_regression_detected_and_reverts() {
        // A write-heavy workload: the new index's maintenance makes the
        // UPDATE measurably more expensive. The validator must catch it.
        let (mut db, t) = orders_db();
        let upd = QueryTemplate::new(
            Statement::Update {
                table: t,
                predicates: vec![Predicate::param(ColumnId(0), CmpOp::Eq, 0)],
                set: vec![(ColumnId(1), Scalar::Param(1))],
            },
            2,
        );
        // Cheap plan for the update search via an id index, so maintenance
        // dominates.
        db.create_index(IndexDef::new("ix_id", t, vec![ColumnId(0)], vec![]))
            .unwrap();
        // Row `i` is customer `i % 300`. The before phase writes each
        // row's value back; the after phase moves each row 150 customers
        // on, so every after-phase UPDATE changes the indexed column and
        // the new index pays its maintenance. Sixty executions a minute
        // apart fill one whole Query Store interval a side.
        let run_updates = |db: &mut Database, n: usize, shift: usize| {
            let start = db.clock().now();
            for i in 0..n {
                db.execute(
                    &upd,
                    &[
                        Value::Int((i % 5000) as i64),
                        Value::Int(((i + shift) % 300) as i64),
                    ],
                )
                .unwrap();
                db.clock().advance(Duration::from_mins(1));
            }
            (start, db.clock().now())
        };
        let before = run_updates(&mut db, 60, 0);
        // The "bad" index: on customer_id, which every update rewrites.
        db.create_index(IndexDef::new(
            "auto_bad",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(2)],
        ))
        .unwrap();
        let after = run_updates(&mut db, 60, 150);
        let out = validate(
            &db,
            "auto_bad",
            ChangeKind::Created,
            before,
            after,
            &ValidatorConfig::default(),
        );
        // The update still seeks ix_id, but its plan now maintains
        // auto_bad too: the plan changed, and its writes cost more.
        assert_eq!(out.verdict, Verdict::Regressed, "{out:?}");
    }

    #[test]
    fn dropped_index_regression_detected() {
        let (mut db, t) = orders_db();
        let tpl = select_tpl(t);
        let (id, _) = db
            .create_index(IndexDef::new(
                "auto_ix",
                t,
                vec![ColumnId(1)],
                vec![ColumnId(0), ColumnId(2)],
            ))
            .unwrap();
        let before = run_phase(&mut db, &tpl, 40);
        db.drop_index(id).unwrap();
        let after = run_phase(&mut db, &tpl, 40);
        let out = validate(
            &db,
            "auto_ix",
            ChangeKind::Dropped,
            before,
            after,
            &ValidatorConfig::default(),
        );
        assert_eq!(out.verdict, Verdict::Regressed, "{out:?}");
        assert!(out.statements[0].cpu_change > 1.0, "large regression");
    }

    #[test]
    fn min_executions_guard() {
        let (mut db, t) = orders_db();
        let tpl = select_tpl(t);
        let before = run_phase(&mut db, &tpl, 40);
        db.create_index(IndexDef::new(
            "auto_good",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(2)],
        ))
        .unwrap();
        // Only 2 executions after: below min_executions.
        let after = run_phase(&mut db, &tpl, 2);
        let out = validate(
            &db,
            "auto_good",
            ChangeKind::Created,
            before,
            after,
            &ValidatorConfig::default(),
        );
        assert_eq!(out.verdict, Verdict::NoData);
    }

    #[test]
    fn aggregate_policy_tolerates_offset_regression() {
        // Two statements: one improves hugely, one regresses mildly. The
        // per-statement policy reverts; the aggregate policy keeps.
        let (mut db, t) = orders_db();
        let good = select_tpl(t);
        // The mild-regression statement: an update whose maintenance cost
        // grows with the index.
        let upd = QueryTemplate::new(
            Statement::Update {
                table: t,
                predicates: vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)],
                set: vec![(ColumnId(2), Scalar::Param(1))],
            },
            2,
        );
        let run_mixed = |db: &mut Database, n: usize| {
            let start = db.clock().now();
            for i in 0..n {
                db.execute(&good, &[Value::Int((i % 300) as i64)]).unwrap();
                db.execute(&upd, &[Value::Int((i % 300) as i64), Value::Float(1.0)])
                    .unwrap();
                db.clock().advance(Duration::from_mins(2));
            }
            (start, db.clock().now())
        };
        let before = run_mixed(&mut db, 40);
        db.create_index(IndexDef::new(
            "auto_mixed",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(2)],
        ))
        .unwrap();
        let after = run_mixed(&mut db, 40);

        let per_stmt = validate(
            &db,
            "auto_mixed",
            ChangeKind::Created,
            before,
            after,
            &ValidatorConfig::default(),
        );
        let agg = validate(
            &db,
            "auto_mixed",
            ChangeKind::Created,
            before,
            after,
            &ValidatorConfig {
                policy: RevertPolicy::Aggregate,
                ..ValidatorConfig::default()
            },
        );
        // The aggregate is dominated by the select's improvement.
        assert!(agg.aggregate_cpu_change < 0.0, "{agg:?}");
        assert_ne!(agg.verdict, Verdict::Regressed);
        // Per-statement may or may not trip depending on the update's
        // sensitivity — assert only the invariant: per-statement is at
        // least as strict as aggregate.
        let strictness = |v: Verdict| match v {
            Verdict::Regressed => 2,
            Verdict::Inconclusive | Verdict::NoData => 1,
            Verdict::Improved => 0,
        };
        assert!(strictness(per_stmt.verdict) >= strictness(agg.verdict));
    }

    /// The loop `validate` ran before it learned to skip a query none of
    /// whose plans references the index: every known query's windows are
    /// read, and the gating rules alone turn it away. The reference for
    /// `gate_skips_nothing_that_could_qualify`.
    fn validate_ungated(
        db: &Database,
        index_name: &str,
        kind: ChangeKind,
        before: (Timestamp, Timestamp),
        after: (Timestamp, Timestamp),
        cfg: &ValidatorConfig,
    ) -> ValidationOutcome {
        let qs = db.query_store();
        let before = (qs.align_up(before.0), qs.align_down(before.1));
        let after = (qs.align_up(after.0), after.1.max(qs.align_up(after.0)));
        let total_before_cpu = qs.total_resources(Metric::CpuTime, before.0, before.1);
        let mut statements = Vec::new();
        for (qid, _info) in qs.known_queries() {
            let before_plans = qs.plans_in_window(qid, before.0, before.1);
            let after_plans = qs.plans_in_window(qid, after.0, after.1);
            if before_plans.is_empty() || after_plans.is_empty() {
                continue;
            }
            let plan_refs_index =
                |p: &sqlmini::plan::PlanId| qs.plan_index_refs(*p).iter().any(|n| n == index_name);
            let qualifies = match kind {
                ChangeKind::Created => {
                    after_plans.iter().any(|(p, _)| plan_refs_index(p))
                        && !before_plans.iter().any(|(p, _)| plan_refs_index(p))
                }
                ChangeKind::Dropped => {
                    before_plans.iter().any(|(p, _)| plan_refs_index(p))
                        && !after_plans.iter().any(|(p, _)| plan_refs_index(p))
                }
            };
            if !qualifies {
                continue;
            }
            let mut before_agg = ExecAgg::default();
            for (_, a) in &before_plans {
                before_agg.merge(a);
            }
            let mut after_agg = ExecAgg::default();
            for (p, a) in &after_plans {
                if kind == ChangeKind::Dropped || plan_refs_index(p) {
                    after_agg.merge(a);
                }
            }
            let cpu_before = sample_of(&before_agg, Metric::CpuTime);
            let cpu_after = sample_of(&after_agg, Metric::CpuTime);
            if cpu_before.count < cfg.min_executions || cpu_after.count < cfg.min_executions {
                continue;
            }
            let reads_before = sample_of(&before_agg, Metric::LogicalReads);
            let reads_after = sample_of(&after_agg, Metric::LogicalReads);
            let cpu_test = welch_t_test(&cpu_before, &cpu_after);
            let reads_test = welch_t_test(&reads_before, &reads_after);
            let change = |b: f64, a: f64| if b > 0.0 { (a - b) / b } else { 0.0 };
            let cpu_change = change(cpu_before.mean, cpu_after.mean);
            let reads_change = change(reads_before.mean, reads_after.mean);
            let resource_frac = if total_before_cpu > 0.0 {
                before_agg.cpu.sum / total_before_cpu
            } else {
                0.0
            };
            let sig_worse = |t: &Option<WelchResult>, change: f64| {
                t.as_ref()
                    .is_some_and(|r| r.p_b_greater < cfg.alpha && change > cfg.regression_threshold)
            };
            let sig_better = |t: &Option<WelchResult>, change: f64| {
                t.as_ref().is_some_and(|r| {
                    (1.0 - r.p_b_greater) < cfg.alpha && change < -IMPROVEMENT_THRESHOLD
                })
            };
            statements.push(StatementValidation {
                query_id: qid,
                cpu_before,
                cpu_after,
                cpu_test,
                cpu_change,
                resource_frac,
                significant_regression: sig_worse(&cpu_test, cpu_change)
                    || sig_worse(&reads_test, reads_change),
                significant_improvement: sig_better(&cpu_test, cpu_change)
                    || sig_better(&reads_test, reads_change),
            });
        }
        let (mut agg_before, mut agg_after) = (0.0f64, 0.0f64);
        for s in &statements {
            let w = s.cpu_before.count as f64;
            agg_before += w * s.cpu_before.mean;
            agg_after += w * s.cpu_after.mean;
        }
        let aggregate_cpu_change = if agg_before > 0.0 {
            (agg_after - agg_before) / agg_before
        } else {
            0.0
        };
        let verdict = if statements.is_empty() {
            Verdict::NoData
        } else {
            match cfg.policy {
                RevertPolicy::PerStatement => {
                    if statements.iter().any(|s| {
                        s.significant_regression && s.resource_frac >= cfg.min_resource_frac
                    }) {
                        Verdict::Regressed
                    } else if statements.iter().any(|s| s.significant_improvement) {
                        Verdict::Improved
                    } else {
                        Verdict::Inconclusive
                    }
                }
                RevertPolicy::Aggregate => {
                    if aggregate_cpu_change > cfg.regression_threshold
                        && statements.iter().any(|s| s.significant_regression)
                    {
                        Verdict::Regressed
                    } else if aggregate_cpu_change < -IMPROVEMENT_THRESHOLD
                        && statements.iter().any(|s| s.significant_improvement)
                    {
                        Verdict::Improved
                    } else {
                        Verdict::Inconclusive
                    }
                }
            }
        };
        ValidationOutcome {
            verdict,
            statements,
            aggregate_cpu_change,
        }
    }

    /// The gate is exact: over a store of many queries whose plans never
    /// touch the validated index (they seek another one) and one that
    /// qualifies, `validate` gives what the ungated loop gives — verdict,
    /// every statement and the aggregate change to the bit — after a
    /// create and after a drop, under both revert policies.
    #[test]
    fn gate_skips_nothing_that_could_qualify() {
        let (mut db, t) = orders_db();
        db.create_index(IndexDef::new("ix_id", t, vec![ColumnId(0)], vec![]))
            .unwrap();
        let unrelated: Vec<QueryTemplate> = (1..=12)
            .map(|limit| {
                let mut q = SelectQuery::new(t);
                q.predicates = vec![Predicate::param(ColumnId(0), CmpOp::Eq, 0)];
                q.projection = vec![ColumnId(1 + limit % 2)];
                q.limit = Some(limit as usize);
                QueryTemplate::new(Statement::Select(q), 1)
            })
            .collect();
        let qualifying = select_tpl(t);
        let run = |db: &mut Database, n: usize| {
            let start = db.clock().now();
            for i in 0..n {
                db.execute(&qualifying, &[Value::Int((i % 300) as i64)])
                    .unwrap();
                for tpl in &unrelated {
                    db.execute(tpl, &[Value::Int((i * 37 % 10_000) as i64)])
                        .unwrap();
                }
                db.clock().advance(Duration::from_mins(2));
            }
            (start, db.clock().now())
        };
        let def = IndexDef::new(
            "auto_ix",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(2)],
        );
        // Three hours a phase, so each window keeps two whole intervals
        // once aligned.
        let first = run(&mut db, 90);
        let (id, _) = db.create_index(def).unwrap();
        let second = run(&mut db, 90);
        db.drop_index(id).unwrap();
        let third = run(&mut db, 90);

        for (kind, before, after) in [
            (ChangeKind::Created, first, second),
            (ChangeKind::Dropped, second, third),
        ] {
            for policy in [RevertPolicy::PerStatement, RevertPolicy::Aggregate] {
                let cfg = ValidatorConfig {
                    policy,
                    ..ValidatorConfig::default()
                };
                let gated = validate(&db, "auto_ix", kind, before, after, &cfg);
                let ungated = validate_ungated(&db, "auto_ix", kind, before, after, &cfg);
                assert_eq!(gated.verdict, ungated.verdict, "{kind:?} {policy:?}");
                assert_ne!(
                    gated.verdict,
                    Verdict::NoData,
                    "{kind:?}: one query qualifies"
                );
                assert_eq!(gated.statements.len(), 1);
                assert_eq!(
                    format!("{:?}", gated.statements),
                    format!("{:?}", ungated.statements)
                );
                assert_eq!(
                    gated.aggregate_cpu_change.to_bits(),
                    ungated.aggregate_cpu_change.to_bits()
                );
            }
        }
    }
}
