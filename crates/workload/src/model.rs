//! Workload models: parameterized query templates with weights, parameter
//! distributions, drift, and diurnal modulation.

use crate::gen::{ColumnDist, ColumnSpec, TableSpec, ZipfCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::query::{
    AggFunc, CmpOp, OrderKey, Predicate, QueryTemplate, Scalar, SelectQuery, Statement,
    TextFidelity,
};
use sqlmini::schema::{ColumnId, TableId};
use sqlmini::types::Value;

/// How one parameter of a template is drawn at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamGen {
    UniformInt {
        lo: i64,
        hi: i64,
    },
    /// Zipf-skewed over `0..cardinality` (hot keys exist).
    Zipf {
        cardinality: u64,
        s: f64,
    },
    UniformFloat {
        lo: f64,
        hi: f64,
    },
    /// `cat_<k>` strings.
    Category {
        n: u64,
    },
    /// A fresh, never-used primary key for `table` (maintained by the
    /// runner's per-table counter).
    FreshPk {
        table: TableId,
    },
    /// Recent-skewed date in `0..days`.
    RecentDate {
        days: u32,
    },
    /// `base + offset` relative to another parameter (range widths).
    OffsetFrom {
        param: u16,
        delta: f64,
    },
}

impl ParamGen {
    /// Draw a value. `prev` holds already-drawn parameters of the same
    /// statement (for `OffsetFrom`); `fresh_pk` supplies pk counters;
    /// `zipf` keeps the caller's Zipf samplers between draws, so that
    /// `ParamGen` itself stays plain data.
    pub(crate) fn draw(
        &self,
        rng: &mut StdRng,
        prev: &[Value],
        fresh_pk: &mut dyn FnMut(TableId) -> i64,
        zipf: &mut ZipfCache,
    ) -> Value {
        match self {
            ParamGen::UniformInt { lo, hi } => Value::Int(rng.random_range(*lo..=(*hi).max(*lo))),
            ParamGen::Zipf { cardinality, s } => {
                Value::Int(zipf.get(*cardinality, *s).sample(rng) as i64)
            }
            ParamGen::UniformFloat { lo, hi } => {
                Value::Float(lo + rng.random::<f64>() * (hi - lo).max(0.0))
            }
            ParamGen::Category { n } => {
                Value::Str(format!("cat_{}", rng.random_range(0..(*n).max(1))).into())
            }
            ParamGen::FreshPk { table } => Value::Int(fresh_pk(*table)),
            ParamGen::RecentDate { days } => {
                let u = rng.random::<f64>();
                Value::Date((*days as f64 * u.sqrt()) as i32)
            }
            ParamGen::OffsetFrom { param, delta } => {
                let base = prev.get(*param as usize).map(|v| v.as_f64()).unwrap_or(0.0);
                match prev.get(*param as usize) {
                    Some(Value::Int(_)) => Value::Int((base + delta) as i64),
                    Some(Value::Date(_)) => Value::Date((base + delta) as i32),
                    _ => Value::Float(base + delta),
                }
            }
        }
    }
}

/// Class of a template (reporting/diagnostics + weight policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TemplateKind {
    PointLookup,
    SecondaryFilter,
    MultiPredicate,
    RangeScan,
    TopN,
    GroupAgg,
    JoinQuery,
    Report,
    InsertRow,
    UpdateRow,
    DeleteRow,
    BulkLoad,
}

impl TemplateKind {
    pub fn is_write(self) -> bool {
        matches!(
            self,
            TemplateKind::InsertRow
                | TemplateKind::UpdateRow
                | TemplateKind::DeleteRow
                | TemplateKind::BulkLoad
        )
    }
}

/// One weighted, parameterized template in a workload.
#[derive(Debug, Clone)]
pub struct TemplateSpec {
    pub template: QueryTemplate,
    pub kind: TemplateKind,
    weight: f64,
    pub(crate) param_gens: Vec<ParamGen>,
    /// Simulation time at which this template starts appearing (workload
    /// drift: new queries arrive over a database's life).
    active_from: Timestamp,
    /// Period of the template's own activity (e.g. daily reports): active
    /// only in the first `duty_cycle` fraction of each period. `None` =
    /// always active.
    schedule: Option<(Duration, f64)>,
}

impl TemplateSpec {
    fn always(
        template: QueryTemplate,
        kind: TemplateKind,
        weight: f64,
        gens: Vec<ParamGen>,
    ) -> TemplateSpec {
        TemplateSpec {
            template,
            kind,
            weight,
            param_gens: gens,
            active_from: Timestamp::EPOCH,
            schedule: None,
        }
    }

    /// Whether the template can fire at `t`.
    fn active_at(&self, t: Timestamp) -> bool {
        if t < self.active_from {
            return false;
        }
        match self.schedule {
            None => true,
            Some((period, duty)) => {
                let phase =
                    (t.millis() % period.millis().max(1)) as f64 / period.millis().max(1) as f64;
                phase < duty
            }
        }
    }
}

/// A tenant's workload: weighted templates + rate model.
#[derive(Debug, Clone)]
pub struct WorkloadModel {
    pub templates: Vec<TemplateSpec>,
    /// Statements per simulated hour at the diurnal peak.
    base_rate_per_hour: f64,
}

/// 0..1: how deep the nightly trough is (0 = flat).
const DIURNAL_AMPLITUDE: f64 = 0.5;

impl WorkloadModel {
    /// Statement rate at time `t` (diurnal sine with a 24 h period).
    pub(crate) fn rate_at(&self, t: Timestamp) -> f64 {
        let day = Duration::from_hours(24).millis() as f64;
        let phase = (t.millis() as f64 % day) / day * std::f64::consts::TAU;
        let mod_factor = 1.0 - DIURNAL_AMPLITUDE * 0.5 * (1.0 + phase.cos());
        self.base_rate_per_hour * mod_factor.max(0.05)
    }

    /// Indices and weights of templates active at `t`.
    fn active_weights(&self, t: Timestamp) -> Vec<(usize, f64)> {
        self.templates
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active_at(t) && s.weight > 0.0)
            .map(|(i, s)| (i, s.weight))
            .collect()
    }

    /// Sample a template index at `t`.
    pub(crate) fn sample_template(&self, t: Timestamp, rng: &mut StdRng) -> Option<usize> {
        let w = self.active_weights(t);
        if w.is_empty() {
            return None;
        }
        let total: f64 = w.iter().map(|(_, x)| x).sum();
        let mut target = rng.random::<f64>() * total;
        for (i, x) in &w {
            target -= x;
            if target <= 0.0 {
                return Some(*i);
            }
        }
        Some(w.last().expect("non-empty").0)
    }
}

/// Knobs for workload synthesis.
#[derive(Debug, Clone)]
pub struct WorkloadGenConfig {
    /// Fraction of statement *weight* devoted to writes.
    pub write_fraction: f64,
    /// Number of read templates per table (roughly).
    pub reads_per_table: usize,
    /// Include a join template when the schema has ≥ 2 tables.
    pub with_joins: bool,
    /// Include an infrequent heavy report query.
    pub with_report: bool,
    /// Fraction of templates captured with irrecoverably incomplete text
    /// (DTA cannot cost them; §5.3.2).
    pub incomplete_text_frac: f64,
    /// Statements per hour at peak.
    pub base_rate_per_hour: f64,
    /// Templates that only appear after this long (drift). `None` = none.
    pub(crate) drift_after: Option<Duration>,
}

impl Default for WorkloadGenConfig {
    fn default() -> WorkloadGenConfig {
        WorkloadGenConfig {
            write_fraction: 0.2,
            reads_per_table: 4,
            with_joins: true,
            with_report: true,
            incomplete_text_frac: 0.1,
            base_rate_per_hour: 600.0,
            drift_after: None,
        }
    }
}

/// Pick a column index matching a filter, if any.
fn pick_col(
    spec: &TableSpec,
    rng: &mut StdRng,
    pred: impl Fn(&ColumnSpec) -> bool,
) -> Option<ColumnId> {
    let candidates: Vec<u32> = spec
        .columns
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, c)| pred(c))
        .map(|(i, _)| i as u32)
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(ColumnId(candidates[rng.random_range(0..candidates.len())]))
    }
}

fn param_gen_for(c: &ColumnSpec, rows: u64) -> ParamGen {
    match &c.dist {
        ColumnDist::Sequential => ParamGen::UniformInt {
            lo: 0,
            hi: rows.max(1) as i64 - 1,
        },
        ColumnDist::UniformInt { cardinality } => ParamGen::UniformInt {
            lo: 0,
            hi: (*cardinality).max(1) as i64 - 1,
        },
        ColumnDist::ZipfInt { cardinality, s } => ParamGen::Zipf {
            cardinality: *cardinality,
            s: *s,
        },
        ColumnDist::UniformFloat { max } => ParamGen::UniformFloat { lo: 0.0, hi: *max },
        ColumnDist::Category { n } => ParamGen::Category { n: *n },
        ColumnDist::DerivedFrom { divisor, .. } => ParamGen::UniformInt {
            lo: 0,
            hi: (rows / (*divisor).max(1)).max(1) as i64,
        },
        ColumnDist::RecentDate { days } => ParamGen::RecentDate { days: *days },
    }
}

/// Columns a "typical app" would project: 2–4 random columns + pk.
fn projection(spec: &TableSpec, rng: &mut StdRng) -> Vec<ColumnId> {
    let mut cols = vec![ColumnId(0)];
    let extra = rng.random_range(1..=3.min(spec.columns.len().saturating_sub(1)).max(1));
    for _ in 0..extra {
        let c = ColumnId(rng.random_range(1..spec.columns.len()) as u32);
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

/// Generate a workload model for a schema that has been created in the
/// engine with the given table ids (parallel to `specs`).
pub(crate) fn generate_workload(
    specs: &[TableSpec],
    table_ids: &[TableId],
    cfg: &WorkloadGenConfig,
    seed: u64,
) -> WorkloadModel {
    assert_eq!(specs.len(), table_ids.len());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x574f_524b_4c44);
    let mut templates: Vec<TemplateSpec> = Vec::new();

    let read_weight_total = 1.0 - cfg.write_fraction;
    let mut read_templates: Vec<TemplateSpec> = Vec::new();
    let mut write_templates: Vec<TemplateSpec> = Vec::new();

    for (spec, &tid) in specs.iter().zip(table_ids) {
        for _ in 0..cfg.reads_per_table {
            match rng.random_range(0..6) {
                0 => {
                    // Point lookup by pk.
                    let mut q = SelectQuery::new(tid);
                    q.predicates = vec![Predicate::param(ColumnId(0), CmpOp::Eq, 0)];
                    q.projection = projection(spec, &mut rng);
                    read_templates.push(TemplateSpec::always(
                        QueryTemplate::new(Statement::Select(q), 1),
                        TemplateKind::PointLookup,
                        3.0,
                        vec![param_gen_for(&spec.columns[0], spec.rows)],
                    ));
                }
                1 => {
                    // Secondary equality filter.
                    if let Some(col) = pick_col(spec, &mut rng, |c| {
                        matches!(
                            c.dist,
                            ColumnDist::UniformInt { .. }
                                | ColumnDist::ZipfInt { .. }
                                | ColumnDist::Category { .. }
                                | ColumnDist::DerivedFrom { .. }
                        )
                    }) {
                        let mut q = SelectQuery::new(tid);
                        q.predicates = vec![Predicate::param(col, CmpOp::Eq, 0)];
                        q.projection = projection(spec, &mut rng);
                        read_templates.push(TemplateSpec::always(
                            QueryTemplate::new(Statement::Select(q), 1),
                            TemplateKind::SecondaryFilter,
                            2.0,
                            vec![param_gen_for(&spec.columns[col.0 as usize], spec.rows)],
                        ));
                    }
                }
                2 => {
                    // Multi-predicate (correlated pairs possible).
                    let a = pick_col(spec, &mut rng, |c| {
                        matches!(
                            c.dist,
                            ColumnDist::UniformInt { .. } | ColumnDist::ZipfInt { .. }
                        )
                    });
                    let b = pick_col(spec, &mut rng, |c| {
                        matches!(
                            c.dist,
                            ColumnDist::DerivedFrom { .. }
                                | ColumnDist::Category { .. }
                                | ColumnDist::UniformInt { .. }
                        )
                    });
                    if let (Some(a), Some(b)) = (a, b) {
                        if a != b {
                            let mut q = SelectQuery::new(tid);
                            q.predicates = vec![
                                Predicate::param(a, CmpOp::Eq, 0),
                                Predicate::param(b, CmpOp::Eq, 1),
                            ];
                            q.projection = projection(spec, &mut rng);
                            read_templates.push(TemplateSpec::always(
                                QueryTemplate::new(Statement::Select(q), 2),
                                TemplateKind::MultiPredicate,
                                1.5,
                                vec![
                                    param_gen_for(&spec.columns[a.0 as usize], spec.rows),
                                    param_gen_for(&spec.columns[b.0 as usize], spec.rows),
                                ],
                            ));
                        }
                    }
                }
                3 => {
                    // Range scan on a numeric/date column.
                    if let Some(col) = pick_col(spec, &mut rng, |c| {
                        matches!(
                            c.dist,
                            ColumnDist::UniformFloat { .. } | ColumnDist::RecentDate { .. }
                        )
                    }) {
                        let mut q = SelectQuery::new(tid);
                        q.predicates = vec![
                            Predicate::param(col, CmpOp::Ge, 0),
                            Predicate::param(col, CmpOp::Lt, 1),
                        ];
                        q.projection = projection(spec, &mut rng);
                        let base = param_gen_for(&spec.columns[col.0 as usize], spec.rows);
                        let delta = match &spec.columns[col.0 as usize].dist {
                            ColumnDist::UniformFloat { max } => max * 0.05,
                            ColumnDist::RecentDate { days } => (*days as f64 * 0.05).max(1.0),
                            _ => 10.0,
                        };
                        read_templates.push(TemplateSpec::always(
                            QueryTemplate::new(Statement::Select(q), 2),
                            TemplateKind::RangeScan,
                            1.5,
                            vec![base, ParamGen::OffsetFrom { param: 0, delta }],
                        ));
                    }
                }
                4 => {
                    // Top-N: eq filter + ORDER BY + LIMIT.
                    let f = pick_col(spec, &mut rng, |c| {
                        matches!(
                            c.dist,
                            ColumnDist::UniformInt { .. }
                                | ColumnDist::ZipfInt { .. }
                                | ColumnDist::Category { .. }
                        )
                    });
                    let o = pick_col(spec, &mut rng, |c| {
                        matches!(
                            c.dist,
                            ColumnDist::UniformFloat { .. } | ColumnDist::RecentDate { .. }
                        )
                    });
                    if let (Some(f), Some(o)) = (f, o) {
                        let mut q = SelectQuery::new(tid);
                        q.predicates = vec![Predicate::param(f, CmpOp::Eq, 0)];
                        q.projection = projection(spec, &mut rng);
                        q.order_by = vec![OrderKey {
                            column: o,
                            asc: true,
                        }];
                        q.limit = Some(10);
                        read_templates.push(TemplateSpec::always(
                            QueryTemplate::new(Statement::Select(q), 1),
                            TemplateKind::TopN,
                            1.0,
                            vec![param_gen_for(&spec.columns[f.0 as usize], spec.rows)],
                        ));
                    }
                }
                _ => {
                    // Grouped aggregate over a low-cardinality column.
                    if let Some(g) = pick_col(spec, &mut rng, |c| {
                        matches!(
                            c.dist,
                            ColumnDist::Category { n } if n <= 50
                        ) || matches!(
                            c.dist,
                            ColumnDist::UniformInt { cardinality } if cardinality <= 100
                        )
                    }) {
                        let agg_col = pick_col(spec, &mut rng, |c| {
                            matches!(c.dist, ColumnDist::UniformFloat { .. })
                        })
                        .unwrap_or(ColumnId(0));
                        let mut q = SelectQuery::new(tid);
                        q.group_by = vec![g];
                        q.aggregates = vec![(AggFunc::Count, ColumnId(0)), (AggFunc::Sum, agg_col)];
                        read_templates.push(TemplateSpec::always(
                            QueryTemplate::new(Statement::Select(q), 0),
                            TemplateKind::GroupAgg,
                            0.5,
                            vec![],
                        ));
                    }
                }
            }
        }

        // Writes per table.
        {
            // INSERT with a fresh pk.
            let values: Vec<Scalar> = (0..spec.columns.len() as u16).map(Scalar::Param).collect();
            let gens: Vec<ParamGen> = spec
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    if i == 0 {
                        ParamGen::FreshPk { table: tid }
                    } else {
                        param_gen_for(c, spec.rows)
                    }
                })
                .collect();
            write_templates.push(TemplateSpec::always(
                QueryTemplate::new(
                    Statement::Insert { table: tid, values },
                    spec.columns.len() as u16,
                ),
                TemplateKind::InsertRow,
                2.0,
                gens,
            ));

            // UPDATE a non-key column by pk.
            if spec.columns.len() > 2 {
                let set_col = ColumnId(rng.random_range(1..spec.columns.len()) as u32);
                let stmt = Statement::Update {
                    table: tid,
                    predicates: vec![Predicate::param(ColumnId(0), CmpOp::Eq, 0)],
                    set: vec![(set_col, Scalar::Param(1))],
                };
                write_templates.push(TemplateSpec::always(
                    QueryTemplate::new(stmt, 2),
                    TemplateKind::UpdateRow,
                    1.5,
                    vec![
                        param_gen_for(&spec.columns[0], spec.rows),
                        param_gen_for(&spec.columns[set_col.0 as usize], spec.rows),
                    ],
                ));
            }

            // Rare DELETE by pk.
            let stmt = Statement::Delete {
                table: tid,
                predicates: vec![Predicate::param(ColumnId(0), CmpOp::Eq, 0)],
            };
            write_templates.push(TemplateSpec::always(
                QueryTemplate::new(stmt, 1),
                TemplateKind::DeleteRow,
                0.3,
                vec![param_gen_for(&spec.columns[0], spec.rows)],
            ));

            // Occasional bulk load (uncostable pre-rewrite).
            if rng.random::<f64>() < 0.3 {
                let values: Vec<Scalar> =
                    (0..spec.columns.len() as u16).map(Scalar::Param).collect();
                let gens: Vec<ParamGen> = spec
                    .columns
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        if i == 0 {
                            ParamGen::FreshPk { table: tid }
                        } else {
                            param_gen_for(c, spec.rows)
                        }
                    })
                    .collect();
                write_templates.push(TemplateSpec::always(
                    QueryTemplate::new(
                        Statement::BulkInsert {
                            table: tid,
                            values,
                            rows: rng.random_range(20..100),
                        },
                        spec.columns.len() as u16,
                    ),
                    TemplateKind::BulkLoad,
                    0.1,
                    gens,
                ));
            }
        }
    }

    // Join template across the two largest tables.
    if cfg.with_joins && specs.len() >= 2 {
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(specs[i].rows));
        let (oi, ii) = (order[0], order[1]);
        // FK: an int column on the outer whose cardinality fits the inner.
        if let Some(fk) = pick_col(
            &specs[oi],
            &mut rng,
            |c| matches!(c.dist, ColumnDist::UniformInt { cardinality } if cardinality <= specs[ii].rows),
        ) {
            let mut q = SelectQuery::new(table_ids[oi]);
            q.projection = vec![ColumnId(0)];
            let inner_filter = pick_col(&specs[ii], &mut rng, |c| {
                matches!(
                    c.dist,
                    ColumnDist::Category { .. } | ColumnDist::UniformInt { .. }
                )
            });
            let mut gens = Vec::new();
            let mut preds = Vec::new();
            if let Some(f) = inner_filter {
                preds.push(Predicate::param(f, CmpOp::Eq, 0));
                gens.push(param_gen_for(
                    &specs[ii].columns[f.0 as usize],
                    specs[ii].rows,
                ));
            }
            q.join = Some(sqlmini::query::JoinSpec {
                table: table_ids[ii],
                outer_col: fk,
                inner_col: ColumnId(0),
                predicates: preds,
                projection: vec![ColumnId(0)],
            });
            read_templates.push(TemplateSpec::always(
                QueryTemplate::new(Statement::Select(q), gens.len() as u16),
                TemplateKind::JoinQuery,
                1.0,
                gens,
            ));
        }
    }

    // Infrequent heavy report: weekly schedule, narrow duty cycle.
    if cfg.with_report {
        let spec = &specs[0];
        if let Some(g) = pick_col(spec, &mut rng, |c| {
            matches!(c.dist, ColumnDist::Category { .. })
                || matches!(c.dist, ColumnDist::UniformInt { cardinality } if cardinality <= 1000)
        }) {
            let mut q = SelectQuery::new(table_ids[0]);
            q.group_by = vec![g];
            q.aggregates = vec![(AggFunc::Count, ColumnId(0))];
            let mut t = TemplateSpec::always(
                QueryTemplate::new(Statement::Select(q), 0),
                TemplateKind::Report,
                0.2,
                vec![],
            );
            // Active ~2 h out of every 7 days.
            t.schedule = Some((Duration::from_days(7), 2.0 / (7.0 * 24.0)));
            read_templates.push(t);
        }
    }

    // Mark a fraction of read templates as incompletely captured.
    for t in read_templates.iter_mut() {
        if rng.random::<f64>() < cfg.incomplete_text_frac {
            t.template = t.template.clone().with_fidelity(TextFidelity::Incomplete);
        }
    }

    // Drift: a random subset of templates only activates later.
    if let Some(after) = cfg.drift_after {
        for t in read_templates.iter_mut() {
            if rng.random::<f64>() < 0.3 {
                t.active_from = Timestamp::EPOCH + after;
            }
        }
    }

    // Normalize weights: reads sum to read_weight_total, writes to
    // write_fraction.
    let rsum: f64 = read_templates.iter().map(|t| t.weight).sum();
    for t in read_templates.iter_mut() {
        t.weight = t.weight / rsum.max(1e-9) * read_weight_total;
    }
    let wsum: f64 = write_templates.iter().map(|t| t.weight).sum();
    for t in write_templates.iter_mut() {
        t.weight = t.weight / wsum.max(1e-9) * cfg.write_fraction;
    }
    templates.extend(read_templates);
    templates.extend(write_templates);

    WorkloadModel {
        templates,
        base_rate_per_hour: cfg.base_rate_per_hour,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_schema, SchemaGenConfig};

    fn model(seed: u64) -> WorkloadModel {
        let specs = generate_schema(&SchemaGenConfig::default(), seed);
        let ids: Vec<TableId> = (0..specs.len() as u32).map(TableId).collect();
        generate_workload(&specs, &ids, &WorkloadGenConfig::default(), seed)
    }

    #[test]
    fn workload_deterministic_and_nonempty() {
        let a = model(5);
        let b = model(5);
        assert_eq!(a.templates.len(), b.templates.len());
        assert!(a.templates.len() >= 6, "got {}", a.templates.len());
        for (x, y) in a.templates.iter().zip(&b.templates) {
            assert_eq!(x.template.query_id(), y.template.query_id());
            assert_eq!(x.weight, y.weight);
        }
    }

    #[test]
    fn weights_respect_write_fraction() {
        let m = model(11);
        let writes: f64 = m
            .templates
            .iter()
            .filter(|t| t.kind.is_write())
            .map(|t| t.weight)
            .sum();
        assert!((writes - 0.2).abs() < 1e-6, "writes {writes}");
        let total: f64 = m.templates.iter().map(|t| t.weight).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn diurnal_rate_varies() {
        let m = model(3);
        let midnight = m.rate_at(Timestamp::EPOCH);
        let noon = m.rate_at(Timestamp::EPOCH + Duration::from_hours(12));
        assert!(
            noon > midnight * 1.5,
            "noon {noon} should exceed midnight {midnight}"
        );
    }

    #[test]
    fn sampling_respects_weights() {
        let m = model(9);
        let mut rng = StdRng::seed_from_u64(0);
        let t = Timestamp::EPOCH + Duration::from_hours(12);
        let mut write_count = 0;
        let n = 10_000;
        for _ in 0..n {
            let i = m.sample_template(t, &mut rng).unwrap();
            if m.templates[i].kind.is_write() {
                write_count += 1;
            }
        }
        let frac = write_count as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.03, "write frac {frac}");
    }

    #[test]
    fn report_schedule_gates_activity() {
        let m = model(13);
        if let Some(report) = m.templates.iter().find(|t| t.kind == TemplateKind::Report) {
            // Active at the very start of the weekly period...
            assert!(report.active_at(Timestamp::EPOCH + Duration::from_mins(30)));
            // ...but not mid-week.
            assert!(!report.active_at(Timestamp::EPOCH + Duration::from_days(3)));
        }
    }

    #[test]
    fn drift_hides_templates_until_activation() {
        let specs = generate_schema(&SchemaGenConfig::default(), 21);
        let ids: Vec<TableId> = (0..specs.len() as u32).map(TableId).collect();
        let cfg = WorkloadGenConfig {
            drift_after: Some(Duration::from_days(10)),
            ..WorkloadGenConfig::default()
        };
        let m = generate_workload(&specs, &ids, &cfg, 21);
        let early = m
            .active_weights(Timestamp::EPOCH + Duration::from_hours(1))
            .len();
        let late = m
            .active_weights(Timestamp::EPOCH + Duration::from_days(11))
            .len();
        assert!(late > early, "late {late} vs early {early}");
    }

    #[test]
    fn param_draws_match_types() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut fresh = |_t: TableId| 42i64;
        let mut zipf = ZipfCache::default();
        let v = ParamGen::UniformInt { lo: 5, hi: 10 }.draw(&mut rng, &[], &mut fresh, &mut zipf);
        assert!(matches!(v, Value::Int(i) if (5..=10).contains(&i)));
        let v = ParamGen::Category { n: 3 }.draw(&mut rng, &[], &mut fresh, &mut zipf);
        assert!(matches!(v, Value::Str(_)));
        let v = ParamGen::FreshPk { table: TableId(0) }.draw(&mut rng, &[], &mut fresh, &mut zipf);
        assert_eq!(v, Value::Int(42));
        let prev = vec![Value::Float(10.0)];
        let v = ParamGen::OffsetFrom {
            param: 0,
            delta: 5.0,
        }
        .draw(&mut rng, &prev, &mut fresh, &mut zipf);
        assert_eq!(v, Value::Float(15.0));
    }

    #[test]
    fn some_templates_are_incomplete() {
        // Over several seeds, the incomplete-text fraction should appear.
        let mut found = false;
        for seed in 0..10 {
            let m = model(seed);
            if m.templates
                .iter()
                .any(|t| t.template.fidelity == TextFidelity::Incomplete)
            {
                found = true;
                break;
            }
        }
        assert!(found, "no incomplete-text templates generated in 10 seeds");
    }
}
