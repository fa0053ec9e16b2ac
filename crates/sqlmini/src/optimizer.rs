//! Cost-based query optimizer.
//!
//! The optimizer enumerates access paths (heap scan, index seek, covering
//! index scan), join strategies (hash join, index nested-loop), and
//! order-riding opportunities (stream aggregation, sort avoidance), costing
//! each alternative from histogram statistics.
//!
//! Two properties matter to the auto-indexing service built on top:
//!
//! * **The estimate/actual gap is real.** Cardinalities come from (possibly
//!   sampled, possibly stale) statistics combined under the independence
//!   assumption; plans are costed from those estimates, while the executor
//!   counts actual work. The same cost *model* maps both to CPU time, so
//!   the only divergence — exactly as in a real system — is cardinality.
//! * **What-if support.** The optimizer plans against a [`PlannerEnv`]
//!   abstraction, so a hypothetical configuration (extra or removed
//!   indexes) is just a different environment; nothing is materialized.
//!
//! During optimization the optimizer also performs **missing-index
//! detection** (§5.2): a purely local, per-table analysis that compares the
//! chosen access path against an ideal index for the statement's sargable
//! predicates and reports the shortfall. As in SQL Server, this analysis
//! does not consider join, group-by, or order-by benefits, nor index
//! maintenance costs — those limitations are what the DTA-style recommender
//! compensates for.

use crate::index::BUILD_FILL;
use crate::plan::{
    Access, AggStrategy, DmlPlan, IndexRef, JoinPlan, JoinStrategy, Plan, PlanEstimates,
    RangeBound, SelectPlan,
};
use crate::query::{CmpOp, Predicate, Scalar, SelectQuery, Statement};
use crate::schema::{ColumnId, IndexDef, TableDef, TableId};
use crate::stats::{defaults, TableStats};
use crate::types::Value;

// The cost model: constants converting page and row counts into CPU
// microseconds. Both the optimizer (on estimated counts) and the executor
// (on actual counts) charge them, so estimated and actual CPU time are
// directly comparable — the paper's validator depends on that
// comparability.

/// CPU cost of reading one logical page.
pub const CPU_PER_PAGE: f64 = 2.0;
/// CPU cost of examining one row.
pub const CPU_PER_ROW: f64 = 0.10;
/// CPU cost of evaluating one predicate on one row.
pub const CPU_PER_PRED: f64 = 0.03;
/// CPU cost of producing one output row.
pub const CPU_PER_OUTPUT_ROW: f64 = 0.05;
/// CPU cost of one hash-table insert or probe.
pub const CPU_PER_HASH_OP: f64 = 0.15;
/// CPU cost of one index/heap maintenance page write.
pub const CPU_PER_WRITE_PAGE: f64 = 4.0;
/// Multiplier on `n log2 n` for sorting.
const SORT_FACTOR: f64 = 0.05;

/// CPU microseconds for a sort of `n` rows.
pub fn sort_cpu(n: f64) -> f64 {
    if n <= 1.0 {
        0.0
    } else {
        SORT_FACTOR * n * n.log2()
    }
}

/// Planner-visible geometry of one index (real or hypothetical).
#[derive(Debug, Clone)]
pub struct IndexGeom {
    pub rref: IndexRef,
    pub def: IndexDef,
    /// Tree height (levels touched by a seek descent).
    pub height: f64,
    /// Leaf pages.
    pub leaf_pages: f64,
    /// Total entries.
    pub entries: f64,
}

impl IndexGeom {
    /// Estimate geometry for a hypothetical index over `rows` rows.
    pub fn hypothetical(def: IndexDef, table: &TableDef, rows: f64) -> IndexGeom {
        let entry_width: f64 = def
            .key_columns
            .iter()
            .chain(def.included_columns.iter())
            .map(|&c| table.column(c).ty.avg_width() as f64)
            .sum::<f64>()
            + 8.0;
        let per_page = (crate::heap::PAGE_SIZE as f64 / entry_width).clamp(8.0, 512.0);
        let leaf_pages = (rows / (per_page * BUILD_FILL)).ceil().max(1.0);
        let height = (leaf_pages.log(per_page.max(2.0)).ceil() + 1.0).max(1.0);
        IndexGeom {
            rref: IndexRef::Hypothetical {
                name: def.name.clone(),
            },
            def,
            height,
            leaf_pages,
            entries: rows,
        }
    }

    fn rows_per_leaf(&self) -> f64 {
        (self.entries / self.leaf_pages).max(1.0)
    }
}

/// Environment the optimizer plans against. The engine implements this for
/// the real configuration; a what-if session wraps it with hypothetical
/// additions/removals.
pub trait PlannerEnv {
    fn table_def(&self, t: TableId) -> &TableDef;
    fn table_stats(&self, t: TableId) -> &TableStats;
    /// Heap pages (from statistics-time row count, as a real optimizer
    /// would see).
    fn heap_pages(&self, t: TableId) -> f64;
    fn indexes_on(&self, t: TableId) -> Vec<IndexGeom>;
}

/// A missing-index observation produced while optimizing one statement
/// (the raw material of the MI DMV, §5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct MissingIndexObservation {
    pub table: TableId,
    /// Columns appearing in equality predicates.
    pub equality_columns: Vec<ColumnId>,
    /// Columns appearing in inequality/range predicates.
    pub inequality_columns: Vec<ColumnId>,
    /// Other columns the statement needs (candidates for INCLUDE).
    pub include_columns: Vec<ColumnId>,
    /// Optimizer cost of the plan actually chosen.
    pub current_cost: f64,
    /// Estimated % improvement had the ideal index existed (0–100).
    pub improvement_pct: f64,
}

/// Output of one optimization: the chosen plan plus any missing-index
/// observations.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    pub plan: Plan,
    pub missing: Vec<MissingIndexObservation>,
}

/// Minimum estimated improvement (percent) for a missing-index observation
/// to be reported, mirroring the server's internal cut-off.
const MI_MIN_IMPROVEMENT_PCT: f64 = 10.0;

/// Minimum absolute cost gap (CPU microseconds) for a missing-index
/// observation — tiny plans never generate MI entries.
const MI_MIN_ABS_IMPROVEMENT: f64 = 20.0;

/// Per-column combined selectivity of a conjunctive predicate list.
fn column_selectivities(
    preds: &[Predicate],
    stats: &TableStats,
    params: &[Value],
) -> Vec<(ColumnId, f64)> {
    let mut by_col: Vec<(ColumnId, Vec<&Predicate>)> = Vec::new();
    for p in preds {
        match by_col.iter_mut().find(|(c, _)| *c == p.column) {
            Some((_, v)) => v.push(p),
            None => by_col.push((p.column, vec![p])),
        }
    }
    by_col
        .into_iter()
        .map(|(col, ps)| {
            let cs = stats.columns.get(col.0 as usize);
            let sel = match cs {
                None => defaults::EQ_SELECTIVITY,
                Some(cs) => {
                    // Combine: equality dominates; otherwise merge range bounds.
                    let mut lo: Option<f64> = None;
                    let mut hi: Option<f64> = None;
                    let mut eq: Option<f64> = None;
                    let mut other = 1.0f64;
                    for p in &ps {
                        let v = p.value.resolve(params);
                        match p.op {
                            CmpOp::Eq => {
                                let s = cs.eq_selectivity(v);
                                eq = Some(eq.map_or(s, |e: f64| e.min(s)));
                            }
                            CmpOp::Ne => other *= 1.0 - cs.eq_selectivity(v),
                            CmpOp::Lt | CmpOp::Le => {
                                let x = v.as_f64();
                                hi = Some(hi.map_or(x, |h: f64| h.min(x)));
                            }
                            CmpOp::Gt | CmpOp::Ge => {
                                let x = v.as_f64();
                                lo = Some(lo.map_or(x, |l: f64| l.max(x)));
                            }
                        }
                    }
                    let range = if lo.is_some() || hi.is_some() {
                        cs.range_selectivity(lo, hi)
                    } else {
                        1.0
                    };
                    eq.unwrap_or(1.0) * range * other
                }
            };
            (col, sel.clamp(1e-9, 1.0))
        })
        .collect()
}

/// Internal: one costed access-path alternative for a single table.
struct PathAlt {
    access: Access,
    /// Predicate indices satisfied by the seek (not re-evaluated).
    consumed: Vec<usize>,
    /// Estimated rows flowing out of the access path after *all* preds.
    rows_out: f64,
    /// Estimated rows examined (seek-qualified or full table).
    rows_examined: f64,
    /// Estimated logical pages.
    pages: f64,
    /// Columns the emitted rows are ordered by.
    order: Vec<ColumnId>,
    cost: f64,
}

/// Enumerate and cost access paths for `preds` over table `t`.
///
/// `needed` is the set of columns the rest of the plan requires from this
/// table (drives covering checks).
fn access_paths(
    env: &dyn PlannerEnv,
    t: TableId,
    preds: &[Predicate],
    needed: &[ColumnId],
    params: &[Value],
) -> Vec<PathAlt> {
    let stats = env.table_stats(t);
    let row_count = stats.row_count as f64;
    let heap_pages = env.heap_pages(t);
    let col_sels = column_selectivities(preds, stats, params);
    let total_sel: f64 = col_sels.iter().map(|(_, s)| s).product();
    let rows_out = (row_count * total_sel).max(0.0);

    let sel_of = |c: ColumnId| col_sels.iter().find(|(cc, _)| *cc == c).map(|(_, s)| *s);

    let mut alts = Vec::new();

    // Sequential scan baseline.
    {
        let pages = heap_pages;
        let cpu = CPU_PER_PAGE * pages
            + CPU_PER_ROW * row_count
            + CPU_PER_PRED * row_count * preds.len() as f64;
        alts.push(PathAlt {
            access: Access::SeqScan,
            consumed: vec![],
            rows_out,
            rows_examined: row_count,
            pages,
            order: vec![],
            cost: cpu,
        });
    }

    for geom in env.indexes_on(t) {
        // Greedily consume leading equality predicates; then at most one
        // range predicate on the next key column (the storage-engine seek
        // contract described in §5.2).
        let mut eq: Vec<Scalar> = Vec::new();
        let mut consumed: Vec<usize> = Vec::new();
        let mut seek_sel = 1.0f64;
        let mut key_pos = 0usize;
        for &kc in &geom.def.key_columns {
            if let Some((pi, p)) = preds
                .iter()
                .enumerate()
                .find(|(i, p)| p.column == kc && p.op == CmpOp::Eq && !consumed.contains(i))
            {
                eq.push(p.value.clone());
                consumed.push(pi);
                seek_sel *= sel_of(kc).unwrap_or(defaults::EQ_SELECTIVITY);
                key_pos += 1;
            } else {
                break;
            }
        }
        let mut lo: Option<RangeBound> = None;
        let mut hi: Option<RangeBound> = None;
        if key_pos < geom.def.key_columns.len() {
            let rc = geom.def.key_columns[key_pos];
            let mut used_range = false;
            for (pi, p) in preds.iter().enumerate() {
                if p.column != rc || consumed.contains(&pi) {
                    continue;
                }
                match p.op {
                    CmpOp::Gt | CmpOp::Ge if lo.is_none() => {
                        lo = Some(RangeBound {
                            op: p.op,
                            value: p.value.clone(),
                        });
                        consumed.push(pi);
                        used_range = true;
                    }
                    CmpOp::Lt | CmpOp::Le if hi.is_none() => {
                        hi = Some(RangeBound {
                            op: p.op,
                            value: p.value.clone(),
                        });
                        consumed.push(pi);
                        used_range = true;
                    }
                    CmpOp::Eq if lo.is_none() && hi.is_none() && !used_range => {
                        // Equality after a gap-free prefix is already
                        // handled; an equality here means we ran past a
                        // missing prefix column — treat as range [v, v].
                        lo = Some(RangeBound {
                            op: CmpOp::Ge,
                            value: p.value.clone(),
                        });
                        hi = Some(RangeBound {
                            op: CmpOp::Le,
                            value: p.value.clone(),
                        });
                        consumed.push(pi);
                        used_range = true;
                    }
                    _ => {}
                }
            }
            if used_range {
                seek_sel *= sel_of(rc).unwrap_or(defaults::INEQ_SELECTIVITY);
            }
        }

        let covering = geom.def.covers(needed);
        let n_residual = preds.len() - consumed.len();

        if !consumed.is_empty() {
            let qualified = (row_count * seek_sel).max(0.0);
            let leaf_visits = (qualified / geom.rows_per_leaf()).ceil().max(1.0);
            let lookup_pages = if covering { 0.0 } else { qualified };
            let pages = geom.height + leaf_visits + lookup_pages;
            let cpu = CPU_PER_PAGE * pages
                + CPU_PER_ROW * qualified
                + CPU_PER_PRED * qualified * n_residual as f64;
            alts.push(PathAlt {
                access: Access::IndexSeek {
                    index: geom.rref.clone(),
                    eq,
                    lo,
                    hi,
                    covering,
                },
                consumed: consumed.clone(),
                rows_out,
                rows_examined: qualified,
                pages,
                order: geom.def.key_columns[key_pos.min(geom.def.key_columns.len())..].to_vec(),
                cost: cpu,
            });
        }

        // Covering ordered scan: useful for narrow scans and order-riding.
        if covering {
            let pages = geom.height + geom.leaf_pages;
            let cpu = CPU_PER_PAGE * pages
                + CPU_PER_ROW * row_count
                + CPU_PER_PRED * row_count * preds.len() as f64;
            alts.push(PathAlt {
                access: Access::IndexScan {
                    index: geom.rref.clone(),
                    covering: true,
                },
                consumed: vec![],
                rows_out,
                rows_examined: row_count,
                pages,
                order: geom.def.key_columns.clone(),
                cost: cpu,
            });
        }
    }
    alts
}

/// Whether `order` (columns emitted in sorted order) satisfies the query's
/// ORDER BY (ascending-prefix check).
fn order_satisfies(order: &[ColumnId], order_by: &[crate::query::OrderKey]) -> bool {
    if order_by.is_empty() {
        return true;
    }
    if order_by.iter().any(|o| !o.asc) {
        return false; // descending scans not modeled
    }
    order_by.len() <= order.len()
        && order_by
            .iter()
            .zip(order.iter())
            .all(|(o, c)| o.column == *c)
}

/// Whether `order` makes stream aggregation possible for GROUP BY columns.
fn order_satisfies_group(order: &[ColumnId], group_by: &[ColumnId]) -> bool {
    if group_by.is_empty() {
        return false;
    }
    if group_by.len() > order.len() {
        return false;
    }
    // The first |group_by| ordered columns must be exactly the group set.
    let prefix = &order[..group_by.len()];
    group_by.iter().all(|g| prefix.contains(g))
}

/// Estimated number of groups for GROUP BY columns.
fn estimate_groups(stats: &TableStats, group_by: &[ColumnId], input_rows: f64) -> f64 {
    let mut g = 1.0f64;
    for c in group_by {
        if let Some(cs) = stats.columns.get(c.0 as usize) {
            g *= cs.ndv.max(1.0);
        }
    }
    g.min(input_rows).max(1.0)
}

/// Optimize a statement, returning the chosen plan and missing-index
/// observations.
pub fn optimize(env: &dyn PlannerEnv, stmt: &Statement, params: &[Value]) -> OptimizeResult {
    match stmt {
        Statement::Select(q) => optimize_select(env, q, params),
        Statement::Insert { table, .. } => {
            let n_ix = env.indexes_on(*table).len() as f64;
            let pages = 1.0 + n_ix * 2.0;
            OptimizeResult {
                plan: Plan::Insert {
                    est: PlanEstimates {
                        rows_out: 1.0,
                        rows_examined: 0.0,
                        pages,
                        cpu_us: CPU_PER_WRITE_PAGE * pages,
                    },
                },
                missing: vec![],
            }
        }
        Statement::BulkInsert { table, rows, .. } => {
            let n_ix = env.indexes_on(*table).len() as f64;
            let pages = (1.0 + n_ix * 2.0) * *rows as f64;
            OptimizeResult {
                plan: Plan::Insert {
                    est: PlanEstimates {
                        rows_out: *rows as f64,
                        rows_examined: 0.0,
                        pages,
                        cpu_us: CPU_PER_WRITE_PAGE * pages,
                    },
                },
                missing: vec![],
            }
        }
        Statement::Update {
            table,
            predicates,
            set,
        } => {
            let (dml, missing) = optimize_dml(env, *table, predicates, params);
            // Maintenance: indexes containing any SET column pay a
            // delete+insert per affected row.
            let affected = dml.est.rows_out;
            let maint_pages: f64 = env
                .indexes_on(*table)
                .iter()
                .filter(|g| {
                    set.iter()
                        .any(|(c, _)| g.def.leaf_columns().any(|lc| lc == *c))
                })
                .map(|g| 2.0 * g.height)
                .sum::<f64>()
                * affected;
            let mut est = dml.est;
            est.pages += maint_pages + affected; // heap write per row
            est.cpu_us += CPU_PER_WRITE_PAGE * (maint_pages + affected);
            OptimizeResult {
                plan: Plan::Update(DmlPlan { est, ..dml }),
                missing,
            }
        }
        Statement::Delete { table, predicates } => {
            let (dml, missing) = optimize_dml(env, *table, predicates, params);
            let affected = dml.est.rows_out;
            let maint_pages: f64 =
                env.indexes_on(*table).iter().map(|g| g.height).sum::<f64>() * affected;
            let mut est = dml.est;
            est.pages += maint_pages + affected;
            est.cpu_us += CPU_PER_WRITE_PAGE * (maint_pages + affected);
            OptimizeResult {
                plan: Plan::Delete(DmlPlan { est, ..dml }),
                missing,
            }
        }
    }
}

fn optimize_dml(
    env: &dyn PlannerEnv,
    table: TableId,
    preds: &[Predicate],
    params: &[Value],
) -> (DmlPlan, Vec<MissingIndexObservation>) {
    // A DML search needs every column? No — it needs the predicate columns
    // to qualify rows plus the row itself (heap access), so covering never
    // removes the heap visit. Model by passing all columns as needed.
    let n_cols = env.table_def(table).columns.len() as u32;
    let needed: Vec<ColumnId> = (0..n_cols).map(ColumnId).collect();
    let alts = access_paths(env, table, preds, &needed, params);
    let best = alts
        .into_iter()
        .min_by(|a, b| {
            a.cost
                .partial_cmp(&b.cost)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least seqscan");
    let residual: Vec<usize> = (0..preds.len())
        .filter(|i| !best.consumed.contains(i))
        .collect();
    let missing = missing_index_for(env, table, preds, &needed, params, best.cost);
    (
        DmlPlan {
            access: best.access,
            residual,
            est: PlanEstimates {
                rows_out: best.rows_out,
                rows_examined: best.rows_examined,
                pages: best.pages,
                cpu_us: best.cost,
            },
        },
        missing,
    )
}

fn optimize_select(env: &dyn PlannerEnv, q: &SelectQuery, params: &[Value]) -> OptimizeResult {
    let stats = env.table_stats(q.table);
    let needed = q.needed_columns();

    let mut alts = access_paths(env, q.table, &q.predicates, &needed, params);

    // Index hint: restrict to the hinted index when present (forced plan /
    // query hint semantics, §5.4).
    if let Some(hint) = &q.index_hint {
        let hinted: Vec<PathAlt> = alts
            .drain(..)
            .filter(|a| {
                a.access
                    .index_ref()
                    .is_some_and(|ix| ix.name() == hint.as_str())
            })
            .collect();
        if !hinted.is_empty() {
            alts = hinted;
        } else {
            // Hinted index missing: query fails at execution; planner falls
            // back to seq scan so the failure surfaces there.
            alts = access_paths(env, q.table, &q.predicates, &needed, params)
                .into_iter()
                .filter(|a| matches!(a.access, Access::SeqScan))
                .collect();
        }
    }

    let mut best: Option<(SelectPlan, f64)> = None;
    for alt in alts {
        let residual: Vec<usize> = (0..q.predicates.len())
            .filter(|i| !alt.consumed.contains(i))
            .collect();
        let mut rows = alt.rows_out;
        let mut cost = alt.cost;
        let mut order = alt.order.clone();

        // Join.
        let join_plan = match &q.join {
            None => None,
            Some(jspec) => {
                let inner_stats = env.table_stats(jspec.table);
                let inner_needed: Vec<ColumnId> = {
                    let mut v = jspec.projection.clone();
                    v.push(jspec.inner_col);
                    v.extend(jspec.predicates.iter().map(|p| p.column));
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                // Hash join alternative: best inner access on its local preds.
                let inner_alts =
                    access_paths(env, jspec.table, &jspec.predicates, &inner_needed, params);
                let inner_best = inner_alts
                    .into_iter()
                    .min_by(|a, b| {
                        a.cost
                            .partial_cmp(&b.cost)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("seqscan exists");
                let inner_rows = inner_best.rows_out;
                // Join output cardinality: containment assumption.
                let inner_ndv = inner_stats
                    .columns
                    .get(jspec.inner_col.0 as usize)
                    .map(|c| c.ndv)
                    .unwrap_or(1.0)
                    .max(1.0);
                let join_rows = (rows * inner_rows / inner_ndv).max(0.0);
                let hash_cost = inner_best.cost
                    + CPU_PER_HASH_OP * (inner_rows + rows)
                    + CPU_PER_OUTPUT_ROW * join_rows;
                let hash_residual: Vec<usize> = (0..jspec.predicates.len())
                    .filter(|i| !inner_best.consumed.contains(i))
                    .collect();

                // Index nested-loop alternative: inner index with leading
                // key = join column.
                let mut inlj: Option<(JoinPlan, f64)> = None;
                for geom in env.indexes_on(jspec.table) {
                    if geom.def.key_columns.first() != Some(&jspec.inner_col) {
                        continue;
                    }
                    let covering = geom.def.covers(&inner_needed);
                    let per_key = (geom.entries / inner_ndv).max(1.0);
                    let lookup = if covering { 0.0 } else { per_key };
                    let per_seek_pages = geom.height + 1.0 + lookup;
                    let per_seek_cpu = CPU_PER_PAGE * per_seek_pages
                        + CPU_PER_ROW * per_key
                        + CPU_PER_PRED * per_key * jspec.predicates.len() as f64;
                    let total = rows * per_seek_cpu + CPU_PER_OUTPUT_ROW * join_rows;
                    let jp = JoinPlan {
                        strategy: JoinStrategy::IndexNestedLoop {
                            inner_index: geom.rref.clone(),
                            covering,
                        },
                        residual: (0..jspec.predicates.len()).collect(),
                    };
                    if inlj.as_ref().is_none_or(|(_, c)| total < *c) {
                        inlj = Some((jp, total));
                    }
                }

                let (jp, jcost) = match inlj {
                    Some((jp, c)) if c < hash_cost => (jp, c),
                    _ => (
                        JoinPlan {
                            strategy: JoinStrategy::Hash {
                                inner_access: Box::new(inner_best.access),
                            },
                            residual: hash_residual,
                        },
                        hash_cost,
                    ),
                };
                // Join scrambles outer order only for hash join build side?
                // Both preserve outer order in our executor; keep `order`.
                rows = join_rows;
                cost += jcost;
                Some(jp)
            }
        };

        // Aggregation.
        let agg = if q.group_by.is_empty() {
            if q.aggregates.is_empty() {
                AggStrategy::None
            } else {
                // Scalar aggregate: single pass, single output row.
                cost += CPU_PER_HASH_OP * rows;
                rows = 1.0;
                AggStrategy::Stream
            }
        } else if order_satisfies_group(&order, &q.group_by) && join_plan.is_none() {
            cost += CPU_PER_OUTPUT_ROW * rows;
            rows = estimate_groups(stats, &q.group_by, rows);
            AggStrategy::Stream
        } else {
            cost += CPU_PER_HASH_OP * rows;
            let groups = estimate_groups(stats, &q.group_by, rows);
            rows = groups;
            order.clear(); // hash agg destroys order
            AggStrategy::Hash
        };

        // Sort for ORDER BY.
        let needs_sort = !order_satisfies(&order, &q.order_by);
        if needs_sort && !q.order_by.is_empty() {
            cost += sort_cpu(rows);
        }

        // Limit.
        if let Some(lim) = q.limit {
            rows = rows.min(lim as f64);
        }
        cost += CPU_PER_OUTPUT_ROW * rows;

        let plan = SelectPlan {
            access: alt.access,
            residual,
            join: join_plan,
            agg,
            needs_sort: needs_sort && !q.order_by.is_empty(),
            est: PlanEstimates {
                rows_out: rows,
                rows_examined: alt.rows_examined,
                pages: alt.pages,
                cpu_us: cost,
            },
        };
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((plan, cost));
        }
    }

    let (plan, best_cost) = best.expect("seqscan always available");
    let missing = missing_index_for(env, q.table, &q.predicates, &needed, params, best_cost);
    OptimizeResult {
        plan: Plan::Select(plan),
        missing,
    }
}

/// The local missing-index analysis (§5.2): construct the ideal index for
/// the statement's sargable predicates on `table` and report the estimated
/// improvement over the chosen plan. Local by design: join, group-by, and
/// order-by benefits are invisible to it, as are maintenance costs.
fn missing_index_for(
    env: &dyn PlannerEnv,
    table: TableId,
    preds: &[Predicate],
    needed: &[ColumnId],
    params: &[Value],
    current_cost: f64,
) -> Vec<MissingIndexObservation> {
    let mut eq_cols: Vec<ColumnId> = Vec::new();
    let mut ineq_cols: Vec<ColumnId> = Vec::new();
    for p in preds {
        match p.op {
            CmpOp::Eq => {
                if !eq_cols.contains(&p.column) {
                    eq_cols.push(p.column);
                }
            }
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                if !ineq_cols.contains(&p.column) && !eq_cols.contains(&p.column) {
                    ineq_cols.push(p.column);
                }
            }
            CmpOp::Ne => {}
        }
    }
    if eq_cols.is_empty() && ineq_cols.is_empty() {
        return vec![];
    }
    // Order equality columns by selectivity (most selective first) so the
    // ideal index is stable and effective.
    let stats = env.table_stats(table);
    let sels = column_selectivities(preds, stats, params);
    let sel_of = |c: &ColumnId| {
        sels.iter()
            .find(|(cc, _)| cc == c)
            .map(|(_, s)| *s)
            .unwrap_or(1.0)
    };
    eq_cols.sort_by(|a, b| {
        sel_of(a)
            .partial_cmp(&sel_of(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    ineq_cols.sort_by(|a, b| {
        sel_of(a)
            .partial_cmp(&sel_of(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let include_cols: Vec<ColumnId> = needed
        .iter()
        .filter(|c| !eq_cols.contains(c) && !ineq_cols.contains(c))
        .copied()
        .collect();

    // Cost the ideal index: keys = equalities + best inequality.
    let mut key = eq_cols.clone();
    if let Some(first_ineq) = ineq_cols.first() {
        key.push(*first_ineq);
    }
    let mut includes = include_cols.clone();
    includes.extend(ineq_cols.iter().skip(1).copied());

    let tdef = env.table_def(table);
    let ideal = IndexDef::new("__mi_ideal", table, key, includes);
    let geom = IndexGeom::hypothetical(ideal, tdef, stats.row_count as f64);
    let seek_sel: f64 = eq_cols
        .iter()
        .map(&sel_of)
        .chain(ineq_cols.first().map(&sel_of))
        .product();
    let qualified = (stats.row_count as f64 * seek_sel).max(0.0);
    let leaf_visits = (qualified / geom.rows_per_leaf()).ceil().max(1.0);
    let pages = geom.height + leaf_visits; // ideal index always covers
    let ideal_cost = CPU_PER_PAGE * pages + CPU_PER_ROW * qualified;

    let improvement_pct = if current_cost <= 0.0 {
        0.0
    } else {
        ((current_cost - ideal_cost) / current_cost * 100.0).clamp(0.0, 100.0)
    };
    if improvement_pct < MI_MIN_IMPROVEMENT_PCT
        || (current_cost - ideal_cost) < MI_MIN_ABS_IMPROVEMENT
    {
        return vec![];
    }
    vec![MissingIndexObservation {
        table,
        equality_columns: eq_cols,
        inequality_columns: ineq_cols,
        include_columns: include_cols,
        current_cost,
        improvement_pct,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{OrderKey, Predicate};
    use crate::schema::{ColumnDef, IndexId};
    use crate::types::{Row, Value, ValueType};

    /// A self-contained planner environment for unit tests.
    struct TestEnv {
        tables: Vec<TableDef>,
        stats: Vec<TableStats>,
        geoms: Vec<Vec<IndexGeom>>,
    }

    impl PlannerEnv for TestEnv {
        fn table_def(&self, t: TableId) -> &TableDef {
            &self.tables[t.0 as usize]
        }
        fn table_stats(&self, t: TableId) -> &TableStats {
            &self.stats[t.0 as usize]
        }
        fn heap_pages(&self, t: TableId) -> f64 {
            let s = &self.stats[t.0 as usize];
            let w = self.tables[t.0 as usize].avg_row_width() as f64;
            (s.row_count as f64 * w / crate::heap::PAGE_SIZE as f64)
                .ceil()
                .max(1.0)
        }
        fn indexes_on(&self, t: TableId) -> Vec<IndexGeom> {
            self.geoms[t.0 as usize].clone()
        }
    }

    fn orders_table() -> TableDef {
        TableDef::new(
            "orders",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("customer_id", ValueType::Int),
                ColumnDef::new("status", ValueType::Int),
                ColumnDef::new("total", ValueType::Float),
            ],
        )
    }

    fn env_with(geoms: Vec<IndexGeom>) -> TestEnv {
        let t = orders_table();
        let rows: Vec<Row> = (0..10_000i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 500),
                    Value::Int(i % 5),
                    Value::Float((i % 1000) as f64),
                ]
            })
            .collect();
        let stats = TableStats::build_full(rows.iter(), 4);
        TestEnv {
            tables: vec![t],
            stats: vec![stats],
            geoms: vec![geoms],
        }
    }

    fn real_geom(name: &str, id: u32, keys: Vec<u32>, incl: Vec<u32>, env: &TestEnv) -> IndexGeom {
        let def = IndexDef::new(
            name,
            TableId(0),
            keys.into_iter().map(ColumnId).collect(),
            incl.into_iter().map(ColumnId).collect(),
        );
        let mut g = IndexGeom::hypothetical(def, &env.tables[0], env.stats[0].row_count as f64);
        g.rref = IndexRef::Real {
            id: IndexId(id),
            name: name.into(),
        };
        g
    }

    fn select_cust_eq() -> SelectQuery {
        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::eq(ColumnId(1), 42i64)];
        q.projection = vec![ColumnId(0), ColumnId(3)];
        q
    }

    #[test]
    fn no_index_means_seqscan_plus_missing_index() {
        let env = env_with(vec![]);
        let r = optimize(&env, &Statement::Select(select_cust_eq()), &[]);
        match r.plan {
            Plan::Select(p) => assert_eq!(p.access, Access::SeqScan),
            _ => panic!(),
        }
        assert_eq!(r.missing.len(), 1);
        let mi = &r.missing[0];
        assert_eq!(mi.equality_columns, vec![ColumnId(1)]);
        assert!(mi.improvement_pct > 50.0, "pct {}", mi.improvement_pct);
        assert!(mi.include_columns.contains(&ColumnId(0)));
        assert!(mi.include_columns.contains(&ColumnId(3)));
    }

    #[test]
    fn usable_index_chosen_and_no_missing_entry() {
        let mut env = env_with(vec![]);
        let g = real_geom("ix_cust", 0, vec![1], vec![0, 3], &env);
        env.geoms[0].push(g);
        let r = optimize(&env, &Statement::Select(select_cust_eq()), &[]);
        match &r.plan {
            Plan::Select(p) => match &p.access {
                Access::IndexSeek {
                    index, covering, ..
                } => {
                    assert_eq!(index.name(), "ix_cust");
                    assert!(covering);
                }
                other => panic!("expected seek, got {other:?}"),
            },
            _ => panic!(),
        }
        assert!(
            r.missing.is_empty(),
            "good index present; missing = {:?}",
            r.missing
        );
    }

    #[test]
    fn non_covering_seek_costs_lookups() {
        let mut env = env_with(vec![]);
        let g = real_geom("ix_cust_slim", 0, vec![1], vec![], &env);
        env.geoms[0].push(g);
        let r = optimize(&env, &Statement::Select(select_cust_eq()), &[]);
        match &r.plan {
            Plan::Select(p) => {
                match &p.access {
                    Access::IndexSeek { covering, .. } => assert!(!covering),
                    other => panic!("{other:?}"),
                }
                // MI should still fire: the covering ideal index is better.
                assert_eq!(r.missing.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn range_predicate_uses_seek_bound() {
        let mut env = env_with(vec![]);
        let g = real_geom("ix_cust_total", 0, vec![1, 3], vec![0], &env);
        env.geoms[0].push(g);
        let mut q = select_cust_eq();
        q.predicates
            .push(Predicate::cmp(ColumnId(3), CmpOp::Ge, 500.0));
        q.predicates
            .push(Predicate::cmp(ColumnId(3), CmpOp::Lt, 700.0));
        let r = optimize(&env, &Statement::Select(q), &[]);
        match &r.plan {
            Plan::Select(p) => match &p.access {
                Access::IndexSeek { eq, lo, hi, .. } => {
                    assert_eq!(eq.len(), 1);
                    assert!(lo.is_some() && hi.is_some());
                    assert!(p.residual.is_empty());
                }
                other => panic!("{other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn selective_seek_beats_seqscan_unselective_does_not() {
        let mut env = env_with(vec![]);
        let g = real_geom("ix_status", 0, vec![2], vec![], &env);
        env.geoms[0].push(g);
        // status has 5 distinct values: 20% selectivity, non-covering.
        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::eq(ColumnId(2), 3i64)];
        q.projection = vec![ColumnId(0), ColumnId(1), ColumnId(3)];
        let r = optimize(&env, &Statement::Select(q), &[]);
        match &r.plan {
            Plan::Select(p) => assert_eq!(
                p.access,
                Access::SeqScan,
                "20% selectivity with lookups should prefer scan"
            ),
            _ => panic!(),
        }
    }

    #[test]
    fn order_by_rides_index_order() {
        let mut env = env_with(vec![]);
        let g = real_geom("ix_cust_total", 0, vec![1, 3], vec![0, 2], &env);
        env.geoms[0].push(g);
        let mut q = select_cust_eq();
        q.order_by = vec![OrderKey {
            column: ColumnId(3),
            asc: true,
        }];
        let r = optimize(&env, &Statement::Select(q.clone()), &[]);
        match &r.plan {
            Plan::Select(p) => assert!(!p.needs_sort, "index provides order after eq prefix"),
            _ => panic!(),
        }
        // Descending order is not provided.
        q.order_by[0].asc = false;
        let r = optimize(&env, &Statement::Select(q), &[]);
        match &r.plan {
            Plan::Select(p) => assert!(p.needs_sort),
            _ => panic!(),
        }
    }

    #[test]
    fn group_by_stream_agg_on_ordered_index() {
        let mut env = env_with(vec![]);
        let g = real_geom("ix_cust", 0, vec![1], vec![3], &env);
        env.geoms[0].push(g);
        let mut q = SelectQuery::new(TableId(0));
        q.group_by = vec![ColumnId(1)];
        q.aggregates = vec![(crate::query::AggFunc::Sum, ColumnId(3))];
        let r = optimize(&env, &Statement::Select(q), &[]);
        match &r.plan {
            Plan::Select(p) => {
                assert_eq!(p.agg, AggStrategy::Stream, "plan: {p:?}");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn index_hint_forces_index() {
        let mut env = env_with(vec![]);
        let g = real_geom("ix_status", 0, vec![2], vec![], &env);
        env.geoms[0].push(g);
        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::eq(ColumnId(2), 3i64)];
        q.projection = vec![ColumnId(0), ColumnId(1), ColumnId(3)];
        q.index_hint = Some("ix_status".into());
        let r = optimize(&env, &Statement::Select(q), &[]);
        match &r.plan {
            Plan::Select(p) => match &p.access {
                Access::IndexSeek { index, .. } => assert_eq!(index.name(), "ix_status"),
                other => panic!("hint ignored: {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn delete_estimates_include_maintenance() {
        let mut env = env_with(vec![]);
        let no_ix = optimize(
            &env,
            &Statement::Delete {
                table: TableId(0),
                predicates: vec![Predicate::eq(ColumnId(1), 42i64)],
            },
            &[],
        );
        let g = real_geom("ix1", 0, vec![1], vec![], &env);
        env.geoms[0].push(g);
        let g = real_geom("ix2", 1, vec![2], vec![], &env);
        env.geoms[0].push(g);
        let with_ix = optimize(
            &env,
            &Statement::Delete {
                table: TableId(0),
                predicates: vec![Predicate::eq(ColumnId(1), 42i64)],
            },
            &[],
        );
        // More indexes -> more maintenance cost even though the search got
        // cheaper; pages must reflect both.
        assert!(with_ix.plan.estimates().pages > 0.0);
        assert!(
            with_ix.plan.estimates().cpu_us + 1e-9 >= 0.0 && no_ix.plan.estimates().cpu_us > 0.0
        );
    }

    #[test]
    fn insert_cost_grows_with_index_count() {
        let mut env = env_with(vec![]);
        let ins = Statement::Insert {
            table: TableId(0),
            values: vec![],
        };
        let base = optimize(&env, &ins, &[]).plan.estimates().cpu_us;
        let g = real_geom("ix1", 0, vec![1], vec![], &env);
        env.geoms[0].push(g);
        let g = real_geom("ix2", 1, vec![2], vec![], &env);
        env.geoms[0].push(g);
        let more = optimize(&env, &ins, &[]).plan.estimates().cpu_us;
        assert!(more > base);
    }

    #[test]
    fn parameter_sniffing_changes_estimates() {
        let env = env_with(vec![]);
        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0)];
        let stmt = Statement::Select(q);
        let with_param = optimize(&env, &stmt, &[Value::Int(42)]);
        let without = optimize(&env, &stmt, &[]);
        // Unknown params resolve to NULL -> default selectivity differs
        // from the sniffed estimate.
        let a = with_param.plan.estimates().rows_out;
        let b = without.plan.estimates().rows_out;
        assert!(a > 0.0 && b >= 0.0);
    }

    #[test]
    fn missing_index_not_reported_without_predicates() {
        let env = env_with(vec![]);
        let mut q = SelectQuery::new(TableId(0));
        q.projection = vec![ColumnId(0)];
        let r = optimize(&env, &Statement::Select(q), &[]);
        assert!(r.missing.is_empty());
    }
}
