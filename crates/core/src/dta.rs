//! The DTA-style recommender (§5.3): a cost-based physical-design search
//! rearchitected to run as an unattended service.
//!
//! Differences from the MI recommender that this module reproduces:
//!
//! * **Workload acquisition is automatic** (§5.3.2): the top-K statements
//!   by resource consumption over the last N hours come from Query Store;
//!   un-costable statements (irrecoverable text fragments) are skipped
//!   and reported; `BULK INSERT` statements are rewritten into equivalent
//!   `INSERT`s so maintenance costs can be estimated; and the search is
//!   augmented with MI candidates so even skipped statements' needs are
//!   represented.
//! * **Candidate selection is comprehensive** (§5.1.1): besides sargable
//!   predicates, DTA considers join keys, group-by and order-by columns.
//! * **Workload-level enumeration**: a greedy search over the merged
//!   candidate set picks the configuration minimizing the optimizer-
//!   estimated workload cost, under `max_indexes` and storage-budget
//!   constraints. Because the what-if environment includes hypothetical
//!   indexes in DML costing, **index maintenance costs are accounted** —
//!   unlike MI.
//! * **Resource budget** (§5.3.1): every what-if call is counted; the
//!   session aborts gracefully (returning the best result so far) when
//!   the optimizer-call budget is exhausted.

use crate::candidate::{IndexCandidate, RecoAction, RecoSource, Recommendation};
use crate::coverage::workload_coverage;
use crate::merging::merge_candidates;
use crate::whatif_cache::{WhatIfCache, WhatIfStats};
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::{Database, WhatIfSession};
use sqlmini::index::SecondaryIndex;
use sqlmini::query::{CmpOp, QueryId, QueryTemplate, Statement};
use sqlmini::querystore::Metric;
use sqlmini::schema::{ColumnId, IndexDef, TableId};
use sqlmini::types::Value;

/// Minimum relative workload improvement for a recommendation set to be
/// emitted at all.
const MIN_IMPROVEMENT_FRAC: f64 = 0.02;

/// DTA session configuration.
#[derive(Debug, Clone)]
pub struct DtaConfig {
    /// Look-back window (the paper's N hours).
    pub window: Duration,
    /// Number of most-expensive statements to tune (the paper's K).
    pub top_k: usize,
    /// Maximum indexes to recommend.
    pub max_indexes: usize,
    /// Total storage budget for recommended indexes.
    pub storage_budget_bytes: Option<u64>,
    /// Maximum optimizer ("what-if") calls before the session aborts.
    pub optimizer_call_budget: u64,
    /// Memoize what-if costs on (statement, per-table configuration
    /// fingerprint) and skip statements a candidate's table cannot
    /// affect. Recommendations are byte-identical either way (pinned by
    /// the `dta_cache` proptest); `false` exists to benchmark the
    /// savings, not to change results.
    pub what_if_cache: bool,
}

impl Default for DtaConfig {
    fn default() -> DtaConfig {
        DtaConfig {
            window: Duration::from_hours(24),
            top_k: 25,
            max_indexes: 5,
            storage_budget_bytes: None,
            optimizer_call_budget: 5_000,
            what_if_cache: true,
        }
    }
}

/// Why a statement was skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Text irrecoverably incomplete; cannot be what-if costed.
    Uncostable,
    /// No template/parameters available in Query Store.
    NoTemplate,
}

/// The session report (§5.3.2: "detailed reports specifying which
/// statements it analyzed and which indexes ... impact which statement").
#[derive(Debug, Clone)]
pub struct DtaReport {
    pub analyzed: Vec<QueryId>,
    pub skipped: Vec<(QueryId, SkipReason)>,
    /// Resource coverage of the analyzed statements.
    pub coverage: f64,
    pub recommendations: Vec<Recommendation>,
    /// Optimizer calls consumed by the session.
    pub optimizer_calls: u64,
    /// True when the call budget ran out before the search finished.
    pub aborted: bool,
    /// Estimated workload cost before / after the recommendation.
    pub baseline_cost: f64,
    pub final_cost: f64,
    /// What-if calls issued / avoided by the session (§5.3.1 budget
    /// accounting; `what_if.issued == optimizer_calls`).
    pub what_if: WhatIfStats,
}

impl DtaReport {
    /// Estimated relative improvement of the whole analyzed workload.
    pub fn improvement_frac(&self) -> f64 {
        if self.baseline_cost <= 0.0 {
            0.0
        } else {
            ((self.baseline_cost - self.final_cost) / self.baseline_cost).max(0.0)
        }
    }

    /// Fraction of what-if lookups answered from the cost cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.what_if.cache_hit_rate()
    }
}

/// One workload statement under analysis.
struct WorkItem {
    qid: QueryId,
    template: QueryTemplate,
    params: Vec<Value>,
    /// Execution count in the window (the statement's weight).
    weight: f64,
}

/// Generate index candidates for one statement (§5.1.1's candidate
/// sources: sargable predicates, joins, group by, order by).
fn candidates_for(item: &WorkItem) -> Vec<IndexCandidate> {
    let mut out: Vec<IndexCandidate> = Vec::new();
    let mut push = |table, keys: Vec<ColumnId>, includes: Vec<ColumnId>| {
        if keys.is_empty() {
            return;
        }
        let mut includes: Vec<ColumnId> =
            includes.into_iter().filter(|c| !keys.contains(c)).collect();
        includes.sort_unstable();
        includes.dedup();
        let cand = IndexCandidate {
            table,
            key_columns: keys,
            included_columns: includes,
            benefit: 0.0,
            avg_impact_pct: 0.0,
            demand: 0,
            impacted_queries: vec![item.qid],
        };
        if !out.contains(&cand) {
            out.push(cand);
        }
    };

    let stmt = &item.template.statement;
    let preds = stmt.predicates();
    let mut eq: Vec<ColumnId> = Vec::new();
    let mut ineq: Vec<ColumnId> = Vec::new();
    for p in preds {
        match p.op {
            CmpOp::Eq => {
                if !eq.contains(&p.column) {
                    eq.push(p.column);
                }
            }
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                if !ineq.contains(&p.column) && !eq.contains(&p.column) {
                    ineq.push(p.column);
                }
            }
            CmpOp::Ne => {}
        }
    }

    match stmt {
        Statement::Select(q) => {
            let needed = q.needed_columns();
            // Predicate-driven: narrow and covering variants.
            if !eq.is_empty() || !ineq.is_empty() {
                let mut keys = eq.clone();
                if let Some(&r) = ineq.first() {
                    keys.push(r);
                }
                push(q.table, keys.clone(), vec![]);
                let includes: Vec<ColumnId> = needed
                    .iter()
                    .filter(|c| !keys.contains(c))
                    .copied()
                    .collect();
                push(q.table, keys, includes);
            }
            // Order-riding: eq prefix + order-by columns (covering).
            if !q.order_by.is_empty() && q.order_by.iter().all(|o| o.asc) {
                let mut keys = eq.clone();
                for o in &q.order_by {
                    if !keys.contains(&o.column) {
                        keys.push(o.column);
                    }
                }
                let includes: Vec<ColumnId> = needed
                    .iter()
                    .filter(|c| !keys.contains(c))
                    .copied()
                    .collect();
                push(q.table, keys, includes);
            }
            // Group-riding: group columns as keys, aggregates included.
            if !q.group_by.is_empty() {
                let keys = q.group_by.clone();
                let includes: Vec<ColumnId> = q.aggregates.iter().map(|(_, c)| *c).collect();
                push(q.table, keys, includes);
            }
            // Join: inner-side index on the join key (enables INLJ).
            if let Some(j) = &q.join {
                let mut inner_needed: Vec<ColumnId> = j.projection.clone();
                inner_needed.extend(j.predicates.iter().map(|p| p.column));
                push(j.table, vec![j.inner_col], inner_needed);
                // Outer-side index on the fk + predicate columns.
                let mut keys = eq.clone();
                if !keys.contains(&j.outer_col) {
                    keys.push(j.outer_col);
                }
                let includes: Vec<ColumnId> = needed
                    .iter()
                    .filter(|c| !keys.contains(c))
                    .copied()
                    .collect();
                push(q.table, keys, includes);
            }
        }
        Statement::Update { table, .. } | Statement::Delete { table, .. } => {
            if !eq.is_empty() || !ineq.is_empty() {
                let mut keys = eq;
                if let Some(&r) = ineq.first() {
                    keys.push(r);
                }
                push(*table, keys, vec![]);
            }
        }
        Statement::Insert { .. } | Statement::BulkInsert { .. } => {}
    }
    out
}

/// Rewrite statements the what-if API cannot cost into equivalents it can
/// (§5.3.2: BULK INSERT → INSERT).
fn rewrite_for_costing(template: &QueryTemplate) -> Option<(QueryTemplate, f64)> {
    match &template.statement {
        Statement::BulkInsert {
            table,
            values,
            rows,
        } => {
            let stmt = Statement::Insert {
                table: *table,
                values: values.clone(),
            };
            Some((QueryTemplate::new(stmt, template.n_params), *rows as f64))
        }
        _ => None,
    }
}

/// Run one DTA tuning session against a database.
/// One greedy-round winner: (remaining-pool index, new total workload
/// cost, index size, per-statement re-costs under that configuration).
type RoundPick = (usize, f64, u64, Vec<(usize, f64)>);

pub fn tune(db: &mut Database, cfg: &DtaConfig) -> DtaReport {
    let now = db.clock().now();
    let from = Timestamp(now.millis().saturating_sub(cfg.window.millis()));
    let calls_at_start = db.optimizer_calls;

    // ---- Workload acquisition (§5.3.2) --------------------------------
    let top = db
        .query_store()
        .top_k_queries(Metric::CpuTime, cfg.top_k, from, now);
    let mut work: Vec<WorkItem> = Vec::new();
    let mut skipped: Vec<(QueryId, SkipReason)> = Vec::new();
    for (qid, _) in &top {
        let Some(info) = db.query_store().query_info(*qid) else {
            skipped.push((*qid, SkipReason::NoTemplate));
            continue;
        };
        let weight = db.query_store().query_stats(*qid, from, now).count() as f64;
        if info.template.costable() {
            work.push(WorkItem {
                qid: *qid,
                template: info.template.clone(),
                params: info.sample_params.clone(),
                weight: weight.max(1.0),
            });
        } else if let Some((tpl, multiplier)) = rewrite_for_costing(&info.template) {
            work.push(WorkItem {
                qid: *qid,
                template: tpl,
                params: info.sample_params.clone(),
                weight: weight.max(1.0) * multiplier,
            });
        } else {
            skipped.push((*qid, SkipReason::Uncostable));
        }
    }

    let analyzed: Vec<QueryId> = work.iter().map(|w| w.qid).collect();
    let coverage = workload_coverage(db, &analyzed, Metric::CpuTime, from, now);

    let existing: Vec<IndexDef> = db.catalog().indexes().map(|(_, d)| d.clone()).collect();

    // ---- Candidate generation (+ per-query what-if costing) -----------
    let mut pool: Vec<IndexCandidate> = Vec::new();
    for item in &work {
        for cand in candidates_for(item) {
            if existing.iter().any(|ix| cand.served_by(ix)) {
                continue;
            }
            match pool_position(&pool, &cand) {
                Some(i) => {
                    if !pool[i].impacted_queries.contains(&item.qid) {
                        pool[i].impacted_queries.push(item.qid);
                    }
                }
                None => pool.push(cand),
            }
        }
    }

    // MI augmentation (§5.3.2, last step): candidates the server already
    // observed, covering statements DTA skipped.
    let mut mi_bonus: Vec<(usize, f64)> = Vec::new();
    let entries = db.mi_dmv().snapshot();
    for (key, stats) in entries {
        let cand = IndexCandidate::from_missing_index_key(&key);
        if existing.iter().any(|ix| cand.served_by(ix)) {
            continue;
        }
        // Match on the full (table, keys, includes) identity — an MI
        // candidate with different includes is a *different* index and
        // must not be merged into (nor credit its impact score to) a
        // structurally distinct pool entry.
        let idx = match pool_position(&pool, &cand) {
            Some(i) => i,
            None => {
                pool.push(cand);
                pool.len() - 1
            }
        };
        // Optimizer-estimated benefit for statements the what-if pass
        // can't reach (the paper: "use the optimizer's cost estimates
        // ... whenever DTA cannot cost them").
        if !skipped.is_empty() {
            mi_bonus.push((idx, stats.impact_score()));
        }
    }

    // Per-statement tables-touched sets: the relevance filter. A
    // hypothetical index can only change the estimate of a statement
    // whose touched set contains its table.
    let touched: Vec<Vec<TableId>> = work
        .iter()
        .map(|w| w.template.statement.tables_touched())
        .collect();

    // Every what-if estimate flows through `costed`, which consults the
    // cache first and enforces the call budget strictly (a session never
    // exceeds `optimizer_call_budget`, it aborts instead).
    let mut cache = WhatIfCache::new();
    let mut stats = WhatIfStats::default();
    let mut budget_left = cfg.optimizer_call_budget as i64;
    let mut aborted = false;

    // Baseline workload cost. Seeds the cache under the empty
    // hypothetical configuration; an abort here means nothing can be
    // scored at all, so the session ends with no recommendations.
    let mut session = db.what_if();
    let mut baseline_per_query: Vec<f64> = Vec::with_capacity(work.len());
    for (wi, item) in work.iter().enumerate() {
        match costed(
            &mut session,
            &mut cache,
            cfg.what_if_cache,
            wi,
            item,
            &touched[wi],
            &mut budget_left,
            &mut stats,
        ) {
            Some(c) => baseline_per_query.push(c),
            None => {
                aborted = true;
                break;
            }
        }
    }
    let baseline_cost: f64 = work
        .iter()
        .zip(&baseline_per_query)
        .map(|(w, c)| w.weight * c)
        .sum();
    if aborted {
        return DtaReport {
            analyzed,
            skipped,
            coverage,
            recommendations: Vec::new(),
            optimizer_calls: db.optimizer_calls - calls_at_start,
            aborted,
            baseline_cost,
            final_cost: baseline_cost,
            what_if: stats,
        };
    }

    // Per-candidate single-index benefit (candidate selection scoring).
    // Statements the candidate's table cannot touch are pruned: their
    // estimate equals the baseline bit-for-bit, contributing zero.
    let mut single_benefit: Vec<f64> = vec![0.0; pool.len()];
    'cands: for (ci, cand) in pool.iter().enumerate() {
        session.clear();
        session.add_hypothetical(named_def(cand, ci));
        let mut benefit = 0.0;
        for (wi, item) in work.iter().enumerate() {
            if cfg.what_if_cache && !touched[wi].contains(&cand.table) {
                stats.saved_pruning += 1;
                continue;
            }
            match costed(
                &mut session,
                &mut cache,
                cfg.what_if_cache,
                wi,
                item,
                &touched[wi],
                &mut budget_left,
                &mut stats,
            ) {
                Some(c) => benefit += item.weight * (baseline_per_query[wi] - c),
                None => {
                    // Budget ran out mid-candidate: the accumulated score
                    // covers only a prefix of the workload — discard it
                    // rather than let a partial score enter merging.
                    aborted = true;
                    break 'cands;
                }
            }
        }
        single_benefit[ci] = benefit;
    }
    drop(session);
    for (ci, bonus) in &mi_bonus {
        single_benefit[*ci] += bonus;
    }
    for (ci, b) in single_benefit.iter().enumerate() {
        pool[ci].benefit = *b;
        pool[ci].demand = pool[ci].impacted_queries.len().max(1) as u64;
    }

    // Drop candidates that don't help anything on their own.
    let mut indexed: Vec<(usize, IndexCandidate)> = pool
        .iter()
        .cloned()
        .enumerate()
        .filter(|(_, c)| c.benefit > 0.0)
        .collect();
    // Merge compatible candidates.
    let merged: Vec<IndexCandidate> = merge_candidates(indexed.drain(..).map(|(_, c)| c).collect());

    // ---- Greedy workload-level enumeration ----------------------------
    // Sizes are pure catalog arithmetic; estimate once per candidate
    // instead of once per (round × candidate) and again at emission.
    let mut remaining: Vec<(IndexCandidate, u64)> = merged
        .into_iter()
        .map(|c| {
            let size = estimate_size(db, &c);
            (c, size)
        })
        .collect();
    let mut chosen: Vec<IndexCandidate> = Vec::new();
    let mut chosen_benefit: Vec<f64> = Vec::new();
    let mut chosen_sizes: Vec<u64> = Vec::new();
    // Per-statement costs of the currently chosen configuration, carried
    // across rounds: a candidate evaluation re-costs only the statements
    // its table can affect and reuses these for the rest.
    let mut current_per_stmt: Vec<f64> = baseline_per_query.clone();
    let mut current_cost = baseline_cost;
    let mut chosen_size: u64 = 0;

    while chosen.len() < cfg.max_indexes && !remaining.is_empty() && !aborted {
        let mut best: Option<RoundPick> = None;
        'round: for (ri, (cand, size)) in remaining.iter().enumerate() {
            if let Some(budget) = cfg.storage_budget_bytes {
                if chosen_size + size > budget {
                    continue;
                }
            }
            let mut session = db.what_if();
            for (i, c) in chosen.iter().enumerate() {
                session.add_hypothetical(named_def(c, 1000 + i));
            }
            session.add_hypothetical(named_def(cand, 2000 + ri));
            let mut cost = 0.0;
            let mut recosted: Vec<(usize, f64)> = Vec::new();
            for (wi, item) in work.iter().enumerate() {
                if cfg.what_if_cache && !touched[wi].contains(&cand.table) {
                    stats.saved_pruning += 1;
                    cost += item.weight * current_per_stmt[wi];
                    continue;
                }
                match costed(
                    &mut session,
                    &mut cache,
                    cfg.what_if_cache,
                    wi,
                    item,
                    &touched[wi],
                    &mut budget_left,
                    &mut stats,
                ) {
                    Some(c) => {
                        cost += item.weight * c;
                        recosted.push((wi, c));
                    }
                    None => {
                        // Budget ran out mid-round: later candidates were
                        // never evaluated, so a previously found `best`
                        // is a half-swept selection — drop the round's
                        // pick entirely.
                        aborted = true;
                        best = None;
                        break 'round;
                    }
                }
            }
            if cost < current_cost && best.as_ref().is_none_or(|(_, bc, _, _)| cost < *bc) {
                best = Some((ri, cost, *size, recosted));
            }
        }
        match best {
            Some((ri, new_cost, size, recosted)) => {
                let (cand, _) = remaining.remove(ri);
                chosen_benefit.push(current_cost - new_cost);
                chosen_sizes.push(size);
                chosen_size += size;
                for (wi, c) in recosted {
                    current_per_stmt[wi] = c;
                }
                current_cost = new_cost;
                chosen.push(cand);
            }
            None => break,
        }
    }

    // Emit only if the aggregate improvement clears the bar.
    let improvement = if baseline_cost > 0.0 {
        (baseline_cost - current_cost) / baseline_cost
    } else {
        0.0
    };
    let recommendations = if improvement >= MIN_IMPROVEMENT_FRAC {
        chosen
            .iter()
            .zip(&chosen_benefit)
            .zip(&chosen_sizes)
            .map(|((c, b), size)| Recommendation {
                action: RecoAction::CreateIndex {
                    def: c.to_index_def(),
                },
                source: RecoSource::Dta,
                estimated_benefit: *b,
                estimated_improvement: (*b / baseline_cost.max(1e-9)).clamp(0.0, 1.0),
                estimated_size_bytes: *size,
                impacted_queries: c.impacted_queries.clone(),
                generated_at: now,
            })
            .collect()
    } else {
        Vec::new()
    };

    DtaReport {
        analyzed,
        skipped,
        coverage,
        recommendations,
        optimizer_calls: db.optimizer_calls - calls_at_start,
        aborted,
        baseline_cost,
        final_cost: current_cost,
        what_if: stats,
    }
}

/// Position of a structurally identical candidate in the pool — all
/// three identity fields must match. (Matching on table + keys alone
/// silently merges distinct-include candidates; see the MI-augmentation
/// dedup fix.)
fn pool_position(pool: &[IndexCandidate], cand: &IndexCandidate) -> Option<usize> {
    pool.iter().position(|c| {
        c.table == cand.table
            && c.key_columns == cand.key_columns
            && c.included_columns == cand.included_columns
    })
}

/// One budget-governed, cache-aware what-if estimate for work item `wi`
/// under `session`'s current hypothetical configuration.
///
/// Lookup order: cache (keyed by the configuration fingerprint restricted
/// to the statement's touched tables) → budget check → real optimizer
/// call, memoized. Returns `None` — without consuming budget — when the
/// budget is exhausted; the caller aborts. With `use_cache` off every
/// call goes to the optimizer, reproducing the uncached session exactly.
#[allow(clippy::too_many_arguments)]
fn costed(
    session: &mut WhatIfSession<'_>,
    cache: &mut WhatIfCache,
    use_cache: bool,
    wi: usize,
    item: &WorkItem,
    touched: &[TableId],
    budget_left: &mut i64,
    stats: &mut WhatIfStats,
) -> Option<f64> {
    let fp = if use_cache {
        let fp = session.config_fingerprint(touched);
        if let Some(c) = cache.get(wi, fp) {
            stats.saved_cache += 1;
            return Some(c);
        }
        Some(fp)
    } else {
        None
    };
    if *budget_left <= 0 {
        return None;
    }
    let (_, est) = session.cost(&item.template, &item.params);
    *budget_left -= 1;
    stats.issued += 1;
    if let Some(fp) = fp {
        cache.insert(wi, fp, est.cpu_us);
    }
    Some(est.cpu_us)
}

/// The candidate's IndexDef with a session-unique name, so several
/// hypothetical indexes can coexist in one what-if config even when their
/// auto-names would collide.
fn named_def(c: &IndexCandidate, salt: usize) -> IndexDef {
    let mut def = c.to_index_def();
    def.name = format!("{}_{salt}", def.name);
    def
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
    use sqlmini::clock::SimClock;
    use sqlmini::engine::DbConfig;
    use sqlmini::query::{Predicate, SelectQuery, TextFidelity};
    use sqlmini::schema::{ColumnDef, TableDef, TableId};
    use sqlmini::types::ValueType;

    fn orders_db() -> (Database, TableId) {
        let mut db = Database::new("dta", DbConfig::default(), SimClock::new());
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
            (0..20_000i64).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 500),
                    Value::Int(i % 5),
                    Value::Float((i % 1000) as f64),
                ]
            }),
        );
        db.rebuild_stats(t);
        (db, t)
    }

    fn run_select(db: &mut Database, t: TableId, reps: usize) -> QueryTemplate {
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0), ColumnId(3)];
        let tpl = QueryTemplate::new(Statement::Select(q), 1);
        for i in 0..reps {
            db.execute(&tpl, &[Value::Int((i % 500) as i64)]).unwrap();
        }
        tpl
    }

    #[test]
    fn recommends_covering_index_for_dominant_query() {
        let (mut db, t) = orders_db();
        run_select(&mut db, t, 50);
        db.clock().advance(Duration::from_hours(1));
        let report = tune(&mut db, &DtaConfig::default());
        assert!(!report.aborted);
        assert!(report.coverage > 0.9, "coverage {}", report.coverage);
        assert_eq!(report.recommendations.len(), 1, "{report:?}");
        let r = &report.recommendations[0];
        match &r.action {
            RecoAction::CreateIndex { def } => {
                assert_eq!(def.table, t);
                assert_eq!(def.key_columns[0], ColumnId(1));
            }
            _ => panic!(),
        }
        assert!(
            report.improvement_frac() > 0.5,
            "{}",
            report.improvement_frac()
        );
        assert!(report.optimizer_calls > 0);
    }

    #[test]
    fn accounts_for_maintenance_costs() {
        // A write-dominated workload: the only read is cheap relative to
        // the writes an index would tax, so DTA must decline.
        let (mut db, t) = orders_db();
        run_select(&mut db, t, 2);
        let ins = QueryTemplate::new(
            Statement::Insert {
                table: t,
                values: (0..4u16).map(sqlmini::query::Scalar::Param).collect(),
            },
            4,
        );
        for i in 0..500i64 {
            db.execute(
                &ins,
                &[
                    Value::Int(100_000 + i),
                    Value::Int(i % 500),
                    Value::Int(0),
                    Value::Float(0.0),
                ],
            )
            .unwrap();
        }
        db.clock().advance(Duration::from_hours(1));
        let report = tune(&mut db, &DtaConfig::default());
        // Whatever it does, the estimated final cost must include the
        // insert maintenance; with 250x more writes the improvement from
        // indexing the rare read is marginal.
        assert!(
            report.improvement_frac() < 0.5,
            "write-heavy workload should cap improvement: {}",
            report.improvement_frac()
        );
    }

    #[test]
    fn respects_max_indexes() {
        let (mut db, t) = orders_db();
        // Three distinct query shapes on different columns.
        for col in [1u32, 2, 3] {
            let mut q = SelectQuery::new(t);
            let op = if col == 3 { CmpOp::Ge } else { CmpOp::Eq };
            q.predicates = vec![Predicate::param(ColumnId(col), op, 0)];
            q.projection = vec![ColumnId(0)];
            let tpl = QueryTemplate::new(Statement::Select(q), 1);
            for i in 0..30 {
                db.execute(&tpl, &[Value::Int(i)]).unwrap();
            }
        }
        db.clock().advance(Duration::from_hours(1));
        let cfg = DtaConfig {
            max_indexes: 1,
            ..DtaConfig::default()
        };
        let report = tune(&mut db, &cfg);
        assert!(report.recommendations.len() <= 1);
    }

    #[test]
    fn respects_storage_budget() {
        let (mut db, t) = orders_db();
        run_select(&mut db, t, 50);
        db.clock().advance(Duration::from_hours(1));
        let cfg = DtaConfig {
            storage_budget_bytes: Some(1), // nothing fits
            ..DtaConfig::default()
        };
        let report = tune(&mut db, &cfg);
        assert!(report.recommendations.is_empty());
    }

    #[test]
    fn aborts_on_call_budget() {
        // Uncached: 3 calls cannot finish baseline + per-candidate passes.
        let (mut db, t) = orders_db();
        run_select(&mut db, t, 50);
        db.clock().advance(Duration::from_hours(1));
        let cfg = DtaConfig {
            optimizer_call_budget: 3,
            what_if_cache: false,
            ..DtaConfig::default()
        };
        let report = tune(&mut db, &cfg);
        assert!(report.aborted);
        assert!(report.optimizer_calls <= 3, "{}", report.optimizer_calls);

        // Cached: the same 3-call budget suffices for this one-statement
        // workload (reuse is the point), but an even tighter budget still
        // aborts gracefully and never overspends.
        let cfg = DtaConfig {
            optimizer_call_budget: 3,
            ..DtaConfig::default()
        };
        let report = tune(&mut db, &cfg);
        assert!(report.optimizer_calls <= 3, "{}", report.optimizer_calls);
        let cfg = DtaConfig {
            optimizer_call_budget: 1,
            ..DtaConfig::default()
        };
        let report = tune(&mut db, &cfg);
        assert!(report.aborted);
        assert!(report.optimizer_calls <= 1, "{}", report.optimizer_calls);
    }

    #[test]
    fn pool_position_matches_all_three_identity_fields() {
        let mk = |keys: Vec<u32>, incl: Vec<u32>| IndexCandidate {
            table: TableId(1),
            key_columns: keys.into_iter().map(ColumnId).collect(),
            included_columns: incl.into_iter().map(ColumnId).collect(),
            benefit: 0.0,
            avg_impact_pct: 0.0,
            demand: 0,
            impacted_queries: vec![],
        };
        let pool = vec![mk(vec![1], vec![2]), mk(vec![1], vec![3])];
        // Same table + keys but different includes is a different entry.
        assert_eq!(pool_position(&pool, &mk(vec![1], vec![2])), Some(0));
        assert_eq!(pool_position(&pool, &mk(vec![1], vec![3])), Some(1));
        assert_eq!(pool_position(&pool, &mk(vec![1], vec![])), None);
        assert_eq!(pool_position(&pool, &mk(vec![1, 2], vec![2])), None);
    }

    #[test]
    fn mi_candidates_with_distinct_includes_not_merged() {
        // Two MI DMV entries sharing table+keys but with different include
        // sets must survive as two pool entries: run a workload whose MI
        // observations differ only in includes, then check both shapes can
        // be recommended independently of cross-credited impact scores.
        let (mut db, t) = orders_db();
        // Query A: predicate on c1, projecting c0 → MI include {c0}.
        run_select(&mut db, t, 40);
        // Query B: predicate on c1, projecting c3 → MI include {c3} (and
        // an uncostable statement so MI bonuses apply at all).
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(3)];
        let bad =
            QueryTemplate::new(Statement::Select(q), 1).with_fidelity(TextFidelity::Incomplete);
        for i in 0..40 {
            db.execute(&bad, &[Value::Int(i % 500)]).unwrap();
        }
        db.clock().advance(Duration::from_hours(1));
        let report = tune(&mut db, &DtaConfig::default());
        // The merged recommendation must cover the skipped query's
        // projected column — possible only if B's MI candidate entered
        // the pool as its own entry instead of vanishing into A's.
        assert!(!report.recommendations.is_empty());
        let covers_c3 = report.recommendations.iter().any(|r| match &r.action {
            RecoAction::CreateIndex { def } => {
                def.key_columns.contains(&ColumnId(3))
                    || def.included_columns.contains(&ColumnId(3))
            }
            _ => false,
        });
        assert!(covers_c3, "{:?}", report.recommendations);
    }

    #[test]
    fn cache_equivalence_on_multi_table_workload() {
        // Cache on vs off must produce byte-identical recommendations and
        // costs; the cached run must issue strictly fewer optimizer calls.
        let (mut db, t) = orders_db();
        let t2 = db
            .create_table(TableDef::new(
                "lines",
                vec![
                    ColumnDef::new("order_id", ValueType::Int),
                    ColumnDef::new("sku", ValueType::Int),
                    ColumnDef::new("qty", ValueType::Int),
                ],
            ))
            .unwrap();
        db.load_rows(
            t2,
            (0..30_000i64).map(|i| {
                vec![
                    Value::Int(i % 20_000),
                    Value::Int(i % 900),
                    Value::Int(i % 7),
                ]
            }),
        );
        db.rebuild_stats(t2);
        run_select(&mut db, t, 40);
        let mut q = SelectQuery::new(t2);
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0), ColumnId(2)];
        let tpl = QueryTemplate::new(Statement::Select(q), 1);
        for i in 0..40 {
            db.execute(&tpl, &[Value::Int(i % 900)]).unwrap();
        }
        db.clock().advance(Duration::from_hours(1));

        let mut db_off = db.clone();
        let on = tune(&mut db, &DtaConfig::default());
        let off = tune(
            &mut db_off,
            &DtaConfig {
                what_if_cache: false,
                ..DtaConfig::default()
            },
        );
        assert_eq!(on.recommendations, off.recommendations);
        assert_eq!(on.baseline_cost.to_bits(), off.baseline_cost.to_bits());
        assert_eq!(on.final_cost.to_bits(), off.final_cost.to_bits());
        assert!(
            on.optimizer_calls < off.optimizer_calls,
            "cached {} vs uncached {}",
            on.optimizer_calls,
            off.optimizer_calls
        );
        assert_eq!(on.what_if.issued, on.optimizer_calls);
        assert!(on.what_if.saved() > 0);
        assert_eq!(off.what_if.saved(), 0);
        assert!(on.cache_hit_rate() > 0.0);
    }

    #[test]
    fn skips_uncostable_and_reports_coverage_loss() {
        let (mut db, t) = orders_db();
        run_select(&mut db, t, 20);
        // An expensive but uncostable statement.
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(2), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0)];
        let bad =
            QueryTemplate::new(Statement::Select(q), 1).with_fidelity(TextFidelity::Incomplete);
        for i in 0..20 {
            db.execute(&bad, &[Value::Int(i % 5)]).unwrap();
        }
        db.clock().advance(Duration::from_hours(1));
        let report = tune(&mut db, &DtaConfig::default());
        assert!(report
            .skipped
            .iter()
            .any(|(q, r)| *q == bad.query_id() && *r == SkipReason::Uncostable));
        assert!(report.coverage < 1.0);
    }

    #[test]
    fn bulk_insert_rewritten() {
        let (mut db, t) = orders_db();
        run_select(&mut db, t, 30);
        let bulk = QueryTemplate::new(
            Statement::BulkInsert {
                table: t,
                values: (0..4u16).map(sqlmini::query::Scalar::Param).collect(),
                rows: 50,
            },
            4,
        );
        for i in 0..10i64 {
            db.execute(
                &bulk,
                &[
                    Value::Int(200_000 + i),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Float(0.0),
                ],
            )
            .unwrap();
        }
        db.clock().advance(Duration::from_hours(1));
        let report = tune(&mut db, &DtaConfig::default());
        // Not costable as written: analyzed only through its rewrite.
        assert!(!bulk.costable());
        assert!(
            report.analyzed.contains(&bulk.query_id()),
            "bulk insert must be rewritten, not skipped: {:?}",
            report.skipped
        );
    }

    #[test]
    fn join_candidate_generated() {
        let (mut db, t) = orders_db();
        let ct = db
            .create_table(TableDef::new(
                "customers",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("region", ValueType::Int),
                ],
            ))
            .unwrap();
        db.load_rows(
            ct,
            (0..40_000i64).map(|i| vec![Value::Int(i % 500), Value::Int(i % 10)]),
        );
        db.rebuild_stats(ct);
        // Highly selective outer side (point lookup by id): the join's
        // cost is then dominated by the inner scan, which only an inner
        // join-key index can remove (via INLJ) — a candidate MI cannot
        // produce.
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(0), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0)];
        q.join = Some(sqlmini::query::JoinSpec {
            table: ct,
            outer_col: ColumnId(1),
            inner_col: ColumnId(0),
            predicates: vec![],
            projection: vec![ColumnId(1)],
        });
        let tpl = QueryTemplate::new(Statement::Select(q), 1);
        for i in 0..30 {
            db.execute(&tpl, &[Value::Int(i * 37 % 20_000)]).unwrap();
        }
        db.clock().advance(Duration::from_hours(1));
        let report = tune(&mut db, &DtaConfig::default());
        // At least one recommendation must land on the inner (customers)
        // table's join column — something MI can never produce.
        let has_join_index = report.recommendations.iter().any(|r| match &r.action {
            RecoAction::CreateIndex { def } => def.table == ct && def.key_columns[0] == ColumnId(0),
            _ => false,
        });
        assert!(has_join_index, "{:?}", report.recommendations);
    }
}
