//! Plan executor with actual-work accounting.
//!
//! The executor interprets a [`Plan`] over real storage and **counts** the
//! work it does — rows examined, predicates evaluated, logical pages read
//! and written, hash operations, sort sizes — then converts those counts
//! into CPU microseconds with the *same* constants the optimizer charges
//! its estimates ([`CPU_PER_PAGE`] and its siblings in
//! [`crate::optimizer`]). Estimated and actual CPU time therefore differ
//! only where cardinality estimation erred, which is precisely the gap the
//! paper's validation machinery (§6) exists to catch.
//!
//! # Borrowed rows
//!
//! The control plane consumes these counts and never a result set, so the
//! pipeline copies nothing it does not have to. An access path hands each
//! qualifying row on as a `RowView`: a reference to the heap row, or to
//! the leaf values of a covering index entry. Residual predicates are
//! bound once per access — the slot their column sits in, the operator,
//! the resolved operand — so a row pays only for the comparisons. Both
//! join strategies work on views (the hash table is keyed by `&Value`);
//! storage is only borrowed shared for the whole statement, so a view
//! stays valid until the sink.
//!
//! # Two sinks
//!
//! A result nobody reads is not computed; its cost still is. Rows flow
//! from the access path, through the join if there is one, into one of
//! two sinks, picked by whether the caller wants rows:
//!
//! - The **count sink** (no `out`: every `Database::execute`, so all
//!   workload and control-plane traffic) keeps the number of rows and,
//!   under GROUP BY, a set of distinct group keys — borrowed rows,
//!   hashed and compared by their group values, probed only when a row's
//!   key differs from the previous row's. It evaluates no aggregate,
//!   sorts nothing and projects nothing.
//! - The **rows sink** (`Database::query`, for tests and the SQL API)
//!   keeps the row views, then aggregates, sorts, applies `LIMIT` and
//!   clones the projected values into the caller's `Vec<Row>`. It is the
//!   reference for the count sink: `exec_differential` drives both in
//!   lockstep and requires bit-equal metrics. Owned rows are built
//!   nowhere else, except for the rows DML writes.
//!
//! # Accounting order
//!
//! `cpu_us` is an `f64` sum, so the *order* of the `ActualMetrics::add_*`
//! calls is part of the observable result (Query Store, the validator and
//! the fleet digests see its low bits). Operators may be restructured
//! freely as long as every `add_*` call keeps its operand and its place
//! in that sequence; `workload/tests/exec_metrics_pin.rs` holds the
//! witness. Both sinks end in one tail, `charge_output`, which charges
//! aggregation, sort and output from the two numbers each sink knows:
//! the rows that reached it and the groups they formed.

use crate::catalog::Catalog;
use crate::heap::{Heap, RowId};
use crate::index::{ColBound, SecondaryIndex};
use crate::optimizer::{
    sort_cpu, CPU_PER_HASH_OP, CPU_PER_OUTPUT_ROW, CPU_PER_PAGE, CPU_PER_PRED, CPU_PER_ROW,
    CPU_PER_WRITE_PAGE,
};
use crate::plan::{Access, AggStrategy, DmlPlan, JoinStrategy, Plan, RangeBound, SelectPlan};
use crate::query::{AggFunc, CmpOp, Predicate, Scalar, SelectQuery, Statement};
use crate::schema::{ColumnId, IndexDef, IndexId, TableId};
use crate::types::{Row, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Counters of actual work done by one statement execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActualMetrics {
    pub rows_returned: u64,
    pub rows_examined: u64,
    pub logical_reads: u64,
    pub logical_writes: u64,
    /// CPU time in microseconds under the engine cost model.
    pub cpu_us: f64,
}

impl ActualMetrics {
    fn add_pages_read(&mut self, pages: u64) {
        self.logical_reads += pages;
        self.cpu_us += CPU_PER_PAGE * pages as f64;
    }

    fn add_pages_written(&mut self, pages: u64) {
        self.logical_writes += pages;
        self.cpu_us += CPU_PER_WRITE_PAGE * pages as f64;
    }

    fn add_rows_examined(&mut self, rows: u64) {
        self.rows_examined += rows;
        self.cpu_us += CPU_PER_ROW * rows as f64;
    }

    fn add_pred_evals(&mut self, n: u64) {
        self.cpu_us += CPU_PER_PRED * n as f64;
    }

    fn add_hash_ops(&mut self, n: u64) {
        self.cpu_us += CPU_PER_HASH_OP * n as f64;
    }
}

/// Errors surfaced by execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Plan references an index that no longer exists (e.g. a hinted index
    /// was dropped — the application-breaking scenario of §5.4).
    MissingIndex(String),
    /// Plan references a hypothetical index (what-if plans can't run).
    HypotheticalPlan,
    UnknownTable(TableId),
    /// The plan does not have the shape its statement needs (a planner
    /// contract violation, e.g. a join query whose plan has no join).
    PlanShape(&'static str),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingIndex(n) => write!(f, "plan references missing index '{n}'"),
            ExecError::HypotheticalPlan => write!(f, "cannot execute a what-if plan"),
            ExecError::UnknownTable(t) => write!(f, "unknown table {t}"),
            ExecError::PlanShape(what) => write!(f, "plan does not fit its statement: {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Mutable storage the executor runs against.
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    pub heaps: &'a mut BTreeMap<TableId, Heap>,
    pub indexes: &'a mut BTreeMap<IndexId, SecondaryIndex>,
}

/// One input row as the operators see it, borrowed from storage for the
/// length of the statement (`'c`): a heap row, or the leaf values of a
/// covering index entry (key values, then included values).
#[derive(Clone, Copy)]
struct RowView<'c> {
    /// The index whose leaf `vals` is; `None` for a heap row.
    leaf: Option<&'c IndexDef>,
    vals: &'c [Value],
}

impl<'c> RowView<'c> {
    fn heap(row: &'c Row) -> RowView<'c> {
        RowView {
            leaf: None,
            vals: row,
        }
    }

    fn col(self, c: ColumnId) -> &'c Value {
        self.at(slot(self.leaf, c))
    }

    fn at(self, slot: usize) -> &'c Value {
        self.vals.get(slot).unwrap_or(&Value::Null)
    }
}

/// Where column `c` sits in a row view: at its own position in a heap row
/// (`leaf` is `None`), at its position among the key-then-included
/// columns of a covering leaf. A column the leaf lacks reads as NULL.
fn slot(leaf: Option<&IndexDef>, c: ColumnId) -> usize {
    let Some(def) = leaf else {
        return c.0 as usize;
    };
    def.leaf_columns().position(|k| k == c).unwrap_or_else(|| {
        // The planner marks an access covering only when the leaf
        // carries every column the plan reads from it.
        debug_assert!(false, "covering read of {c} not in '{}'", def.name);
        usize::MAX
    })
}

fn resolve_bound(b: &Option<RangeBound>, params: &[Value], is_lo: bool) -> ColBound {
    match b {
        None => ColBound::Unbounded,
        Some(rb) => {
            let v = rb.value.resolve(params).clone();
            match (rb.op, is_lo) {
                (CmpOp::Ge, true) | (CmpOp::Le, false) => ColBound::Included(v),
                (CmpOp::Gt, true) | (CmpOp::Lt, false) => ColBound::Excluded(v),
                // Defensive: a mismatched op still produces a usable bound.
                _ => ColBound::Included(v),
            }
        }
    }
}

/// A predicate bound to the rows of one access: the slot its column sits
/// in, its operator and its resolved operand.
struct Bound<'q> {
    slot: usize,
    op: CmpOp,
    value: &'q Value,
}

/// Bind `preds` under `params` to rows laid out as `leaf` says ([`slot`]).
fn bind<'q>(
    preds: impl IntoIterator<Item = &'q Predicate>,
    params: &'q [Value],
    leaf: Option<&IndexDef>,
) -> Vec<Bound<'q>> {
    let bound = |p: &'q Predicate| Bound {
        slot: slot(leaf, p.column),
        op: p.op,
        value: p.value.resolve(params),
    };
    preds.into_iter().map(bound).collect()
}

/// Whether `row` satisfies every predicate of `filter`.
fn keeps(filter: &[Bound], row: RowView) -> bool {
    filter.iter().all(|b| b.op.eval(row.at(b.slot), b.value))
}

/// The residual predicates of one access path — `preds[i]` for each `i`
/// in `which` — and the parameter binding they are evaluated under.
#[derive(Clone, Copy)]
struct Residual<'q> {
    preds: &'q [Predicate],
    which: &'q [usize],
    params: &'q [Value],
}

impl<'q> Residual<'q> {
    fn bind(self, leaf: Option<&IndexDef>) -> Vec<Bound<'q>> {
        bind(
            self.which.iter().map(|&i| &self.preds[i]),
            self.params,
            leaf,
        )
    }

    /// Charge the evaluation of every residual predicate on `rows` rows.
    fn charge(self, m: &mut ActualMetrics, rows: u64) {
        if !self.which.is_empty() {
            m.add_pred_evals(rows * self.which.len() as u64);
        }
    }
}

/// Run an access path, apply the plan's residual predicates, and hand
/// every surviving row to `emit` as a view: the heap row (sequential scan,
/// or bookmark lookup behind a non-covering index) or the index leaf
/// itself when the access is covering.
fn run_access<'c>(
    ctx: &'c ExecContext<'_>,
    table: TableId,
    access: &Access,
    residual: Residual,
    m: &mut ActualMetrics,
    mut emit: impl FnMut(RowId, RowView<'c>),
) -> Result<(), ExecError> {
    let heap = ctx
        .heaps
        .get(&table)
        .ok_or(ExecError::UnknownTable(table))?;
    let (index, covering) = match access {
        Access::SeqScan => {
            m.add_pages_read(heap.page_count());
            m.add_rows_examined(heap.len() as u64);
            residual.charge(m, heap.len() as u64);
            let filter = residual.bind(None);
            for (rid, row) in heap.scan_quiet() {
                let v = RowView::heap(row);
                if keeps(&filter, v) {
                    emit(rid, v);
                }
            }
            return Ok(());
        }
        Access::IndexSeek {
            index, covering, ..
        }
        | Access::IndexScan { index, covering } => (index, *covering),
    };
    let id = index.real_id().ok_or(ExecError::HypotheticalPlan)?;
    let ix = ctx
        .indexes
        .get(&id)
        .ok_or_else(|| ExecError::MissingIndex(index.name().to_string()))?;
    let leaf = Some(&ix.def);
    let filter = if covering {
        residual.bind(leaf)
    } else {
        Vec::new()
    };
    let mut rids: Vec<RowId> = Vec::new();
    let mut visit = |rid, vals| {
        let v = RowView { leaf, vals };
        if !covering {
            rids.push(rid);
        } else if keeps(&filter, v) {
            emit(rid, v);
        }
    };
    let (n, pages) = match access {
        Access::IndexSeek { eq, lo, hi, .. } => {
            let params = residual.params;
            let eq_vals: Vec<Value> = eq.iter().map(|s| s.resolve(params).clone()).collect();
            let lo_b = resolve_bound(lo, params, true);
            let hi_b = resolve_bound(hi, params, false);
            ix.seek_visit(&eq_vals, lo_b, hi_b, &mut visit)
        }
        _ => {
            let (n, _) = ix.scan_visit(&mut visit);
            (n, ix.leaf_pages() + ix.height() as u64)
        }
    };
    m.add_pages_read(pages);
    m.add_rows_examined(n);
    if covering {
        residual.charge(m, n);
    } else {
        fetch_and_filter(heap, &rids, residual, m, emit);
    }
    Ok(())
}

/// Bookmark-lookup the given row ids (one page each) and emit the rows
/// that pass the residual predicates.
fn fetch_and_filter<'c>(
    heap: &'c Heap,
    rids: &[RowId],
    residual: Residual,
    m: &mut ActualMetrics,
    mut emit: impl FnMut(RowId, RowView<'c>),
) {
    let filter = residual.bind(None);
    let mut fetched = 0u64;
    for &rid in rids {
        m.add_pages_read(1);
        if let Some(row) = heap.peek(rid) {
            fetched += 1;
            let v = RowView::heap(row);
            if keeps(&filter, v) {
                emit(rid, v);
            }
        }
    }
    residual.charge(m, fetched);
}

/// Run a SELECT plan's access path and join, handing every result pair
/// (outer row, inner row) to `sink` — the inner row is `None` without a
/// join. Charges the access and the join; what the sink does is charged
/// by [`charge_output`].
fn produce<'c>(
    ctx: &'c ExecContext<'_>,
    q: &SelectQuery,
    plan: &SelectPlan,
    params: &[Value],
    m: &mut ActualMetrics,
    mut sink: impl FnMut(RowView<'c>, Option<RowView<'c>>),
) -> Result<(), ExecError> {
    let residual = Residual {
        preds: &q.predicates,
        which: &plan.residual,
        params,
    };
    let (jspec, jplan) = match (&q.join, &plan.join) {
        (None, _) => {
            return run_access(ctx, q.table, &plan.access, residual, m, |_, v| {
                sink(v, None)
            })
        }
        (Some(_), None) => return Err(ExecError::PlanShape("join query without a join plan")),
        (Some(jspec), Some(jplan)) => (jspec, jplan),
    };
    let mut outers: Vec<RowView> = Vec::new();
    run_access(ctx, q.table, &plan.access, residual, m, |_, v| {
        outers.push(v)
    })?;
    match &jplan.strategy {
        JoinStrategy::Hash { inner_access } => {
            let mut ht: HashMap<&Value, Vec<RowView>> = HashMap::new();
            let mut inners = 0u64;
            let residual = Residual {
                preds: &jspec.predicates,
                which: &jplan.residual,
                params,
            };
            run_access(ctx, jspec.table, inner_access, residual, m, |_, v| {
                inners += 1;
                ht.entry(v.col(jspec.inner_col)).or_default().push(v);
            })?;
            m.add_hash_ops(inners);
            m.add_hash_ops(outers.len() as u64);
            for outer in outers {
                for &inner in ht.get(outer.col(jspec.outer_col)).into_iter().flatten() {
                    sink(outer, Some(inner));
                }
            }
        }
        JoinStrategy::IndexNestedLoop {
            inner_index,
            covering,
        } => {
            let id = inner_index.real_id().ok_or(ExecError::HypotheticalPlan)?;
            // A missing index fails the statement at its first outer row,
            // not before: with no outer row there is nothing to seek.
            let inner_ix = ctx.indexes.get(&id);
            let leaf = inner_ix.filter(|_| *covering).map(|ix| &ix.def);
            let filter = bind(&jspec.predicates, params, leaf);
            let mut rids: Vec<RowId> = Vec::new();
            let mut matched: Vec<RowView> = Vec::new();
            for outer in outers {
                let ix =
                    inner_ix.ok_or_else(|| ExecError::MissingIndex(inner_index.name().into()))?;
                let key = std::slice::from_ref(outer.col(jspec.outer_col));
                let (lo, hi) = (ColBound::Unbounded, ColBound::Unbounded);
                rids.clear();
                matched.clear();
                let (n, pages) = ix.seek_visit(key, lo, hi, |rid, vals| {
                    if *covering {
                        matched.push(RowView { leaf, vals });
                    } else {
                        rids.push(rid);
                    }
                });
                m.add_pages_read(pages);
                m.add_rows_examined(n);
                if !*covering {
                    let heap = ctx
                        .heaps
                        .get(&jspec.table)
                        .ok_or(ExecError::UnknownTable(jspec.table))?;
                    for &rid in &rids {
                        m.add_pages_read(1);
                        matched.extend(heap.peek(rid).map(RowView::heap));
                    }
                }
                let evals = matched.len() as u64 * jspec.predicates.len() as u64;
                m.add_pred_evals(evals);
                for &inner in matched.iter().filter(|&&v| keeps(&filter, v)) {
                    sink(outer, Some(inner));
                }
            }
        }
    }
    Ok(())
}

/// ORDER BY comparison of two rows of any representation: `col` reads a
/// key column's value from one, or `None` for a key the row does not
/// carry (which is then skipped).
fn order_cmp<'v, R: Copy>(
    order: &[crate::query::OrderKey],
    (a, b): (R, R),
    col: impl Fn(R, ColumnId) -> Option<&'v Value>,
) -> std::cmp::Ordering {
    for o in order {
        let (Some(x), Some(y)) = (col(a, o.column), col(b, o.column)) else {
            continue;
        };
        let ord = if o.asc { x.cmp(y) } else { x.cmp(y).reverse() };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Execute a SELECT plan. The projected rows are appended to `out` when
/// the caller passes one (the rows sink); otherwise they are only counted
/// (the count sink). The metrics are the same either way.
pub fn execute_select(
    ctx: &ExecContext<'_>,
    q: &SelectQuery,
    plan: &SelectPlan,
    params: &[Value],
    out: Option<&mut Vec<Row>>,
) -> Result<ActualMetrics, ExecError> {
    let mut m = ActualMetrics::default();
    let Some(out) = out else {
        let mut count = Counter::new(&q.group_by);
        produce(ctx, q, plan, params, &mut m, |outer, _| count.push(outer))?;
        charge_output(&mut m, q, plan, count.rows, count.groups());
        return Ok(m);
    };

    let mut joined: Vec<(RowView, Option<RowView>)> = Vec::new();
    produce(ctx, q, plan, params, &mut m, |outer, inner| {
        joined.push((outer, inner))
    })?;
    let sorts = plan.needs_sort && !q.order_by.is_empty();
    if is_aggregate(q) {
        let mut groups = aggregate(q, &joined);
        let returned = charge_output(&mut m, q, plan, joined.len() as u64, groups.len() as u64);
        if sorts {
            // ORDER BY on a group column sorts by its position in the key.
            groups.sort_by(|a, b| {
                order_cmp(&q.order_by, (a, b), |row: &Row, c| {
                    q.group_by.iter().position(|g| *g == c).map(|i| &row[i])
                })
            });
        }
        out.extend(groups.into_iter().take(returned));
    } else {
        let returned = charge_output(&mut m, q, plan, joined.len() as u64, 0);
        if sorts {
            // Sort the source rows, *before* projection, so ORDER BY
            // columns need not be projected.
            joined
                .sort_by(|(a, _), (b, _)| order_cmp(&q.order_by, (*a, *b), |v, c| Some(v.col(c))));
        }
        // LIMIT first, then project what is left: primary columns, then
        // join columns.
        out.extend(joined[..returned].iter().map(|(outer, inner)| {
            let mut row: Row = q.projection.iter().map(|&c| outer.col(c).clone()).collect();
            if let (Some(jspec), Some(inner)) = (&q.join, inner) {
                row.extend(jspec.projection.iter().map(|&c| inner.col(c).clone()));
            }
            row
        }));
    }
    Ok(m)
}

/// Whether a SELECT returns one row per group rather than one per input
/// row (GROUP BY, or aggregates over the whole input).
fn is_aggregate(q: &SelectQuery) -> bool {
    !q.aggregates.is_empty() || !q.group_by.is_empty()
}

/// The accounting tail both sinks end in. From the rows that reached the
/// sink and the groups they formed (read only when [`is_aggregate`]), it
/// charges aggregation, sort and output, in that order, and returns how
/// many rows the statement returns.
fn charge_output(
    m: &mut ActualMetrics,
    q: &SelectQuery,
    plan: &SelectPlan,
    rows: u64,
    groups: u64,
) -> usize {
    let produced = if is_aggregate(q) {
        // Stream and hash aggregation differ only in cost.
        match plan.agg {
            AggStrategy::Hash => m.add_hash_ops(rows),
            _ => m.cpu_us += CPU_PER_OUTPUT_ROW * rows as f64,
        }
        groups
    } else {
        rows
    };
    if plan.needs_sort && !q.order_by.is_empty() {
        m.cpu_us += sort_cpu(produced as f64);
    }
    let returned = q.limit.map_or(produced, |lim| produced.min(lim as u64));
    m.rows_returned = returned;
    m.cpu_us += CPU_PER_OUTPUT_ROW * returned as f64;
    returned as usize
}

/// The count sink: how many rows reached it and, under GROUP BY, the
/// distinct keys among them. A row's key is probed in the set only when
/// it differs from the previous row's, so a run of equal keys — input in
/// index order — costs one comparison a row.
struct Counter<'c, 'q> {
    group_by: &'q [ColumnId],
    rows: u64,
    keys: HashSet<GroupKey<'c, 'q>>,
    last: Option<GroupKey<'c, 'q>>,
}

/// A row standing for its GROUP BY key: hashed and compared by the values
/// of the group columns, read through the row, so a key borrows what it
/// holds and a new group allocates nothing of its own.
#[derive(Clone, Copy)]
struct GroupKey<'c, 'q> {
    row: RowView<'c>,
    group_by: &'q [ColumnId],
}

impl Hash for GroupKey<'_, '_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &c in self.group_by {
            self.row.col(c).hash(state);
        }
    }
}

impl PartialEq for GroupKey<'_, '_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.row, other.row);
        self.group_by.iter().all(|&c| a.col(c) == b.col(c))
    }
}

impl Eq for GroupKey<'_, '_> {}

impl<'c, 'q> Counter<'c, 'q> {
    fn new(group_by: &'q [ColumnId]) -> Counter<'c, 'q> {
        Counter {
            group_by,
            rows: 0,
            keys: HashSet::new(),
            last: None,
        }
    }

    fn push(&mut self, row: RowView<'c>) {
        self.rows += 1;
        if self.group_by.is_empty() {
            return;
        }
        let key = GroupKey {
            row,
            group_by: self.group_by,
        };
        if self.last != Some(key) {
            self.keys.insert(key);
            self.last = Some(key);
        }
    }

    /// The groups the rows form: one per distinct key, or without GROUP
    /// BY one for the whole input — none when no row qualified.
    fn groups(&self) -> u64 {
        if self.group_by.is_empty() {
            self.rows.min(1)
        } else {
            self.keys.len() as u64
        }
    }
}

/// The rows sink's aggregation: one row per group — the key values, then
/// the aggregates — in key order.
fn aggregate<'c>(q: &SelectQuery, joined: &[(RowView<'c>, Option<RowView<'c>>)]) -> Vec<Row> {
    // One probe per input row through borrowed values; a key is
    // allocated only when its group is new.
    let mut index: HashMap<Vec<&Value>, usize> = HashMap::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let mut key: Vec<&Value> = Vec::with_capacity(q.group_by.len());
    for (outer, _) in joined {
        key.clear();
        key.extend(q.group_by.iter().map(|&c| outer.col(c)));
        let g = match index.get(key.as_slice()) {
            Some(&g) => g,
            None => {
                index.insert(key.clone(), states.len());
                states.push(
                    q.aggregates
                        .iter()
                        .map(|(f, _)| AggState::new(*f))
                        .collect(),
                );
                states.len() - 1
            }
        };
        for (st, (_, col)) in states[g].iter_mut().zip(&q.aggregates) {
            st.update(outer.col(*col));
        }
    }
    // `Value`'s order over the keys, first-seen group first on a tie:
    // the order a `BTreeMap` keyed by the group key iterates in.
    let mut groups: Vec<(Vec<&Value>, usize)> = index.into_iter().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    groups
        .into_iter()
        .map(|(key, g)| {
            let mut row: Row = key.into_iter().cloned().collect();
            row.extend(states[g].iter().map(AggState::finish));
            row
        })
        .collect()
}

/// Running state of one aggregate: only what its function reads.
#[derive(Debug, Clone)]
struct AggState<'c> {
    func: AggFunc,
    count: u64,
    sum: f64,
    /// Running minimum or maximum, for `Min` / `Max`.
    extreme: Option<&'c Value>,
}

impl<'c> AggState<'c> {
    fn new(func: AggFunc) -> AggState<'c> {
        AggState {
            func,
            count: 0,
            sum: 0.0,
            extreme: None,
        }
    }

    fn update(&mut self, v: &'c Value) {
        if v.is_null() {
            return;
        }
        match self.func {
            AggFunc::Count => self.count += 1,
            AggFunc::Sum => self.sum += v.as_f64(),
            AggFunc::Avg => {
                self.count += 1;
                self.sum += v.as_f64();
            }
            AggFunc::Min if self.extreme.is_none_or(|m| v < m) => self.extreme = Some(v),
            AggFunc::Max if self.extreme.is_none_or(|m| v > m) => self.extreme = Some(v),
            AggFunc::Min | AggFunc::Max => {}
        }
    }

    fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Min | AggFunc::Max => self.extreme.cloned().unwrap_or(Value::Null),
            AggFunc::Avg if self.count == 0 => Value::Null,
            AggFunc::Avg => Value::Float(self.sum / self.count as f64),
        }
    }
}

/// Execute a DML statement (or INSERT) under its plan.
pub fn execute_dml(
    ctx: &mut ExecContext<'_>,
    stmt: &Statement,
    plan: &Plan,
    params: &[Value],
) -> Result<ActualMetrics, ExecError> {
    let mut m = ActualMetrics::default();
    match (stmt, plan) {
        (Statement::Insert { table, values }, Plan::Insert { .. }) => {
            insert_one(ctx, *table, values, params, &mut m)?;
        }
        (
            Statement::BulkInsert {
                table,
                values,
                rows,
            },
            Plan::Insert { .. },
        ) => {
            for _ in 0..*rows {
                insert_one(ctx, *table, values, params, &mut m)?;
            }
        }
        (
            Statement::Update {
                table,
                predicates,
                set,
            },
            Plan::Update(dp),
        ) => {
            let targets = find_targets(ctx, *table, predicates, dp, params, &mut m)?;
            let heap = ctx
                .heaps
                .get_mut(table)
                .ok_or(ExecError::UnknownTable(*table))?;
            for rid in targets {
                let Some(old) = heap.peek(rid) else { continue };
                let mut new = old.clone();
                for (c, s) in set {
                    new[c.0 as usize] = s.resolve(params).clone();
                }
                m.add_pages_written(1);
                for (id, _) in ctx.catalog.indexes_on(*table) {
                    if let Some(ix) = ctx.indexes.get_mut(&id) {
                        let pages = ix.update_row(rid, old, &new);
                        m.add_pages_written(pages);
                    }
                }
                heap.update(rid, new);
                m.rows_returned += 1;
            }
        }
        (Statement::Delete { table, predicates }, Plan::Delete(dp)) => {
            let targets = find_targets(ctx, *table, predicates, dp, params, &mut m)?;
            let heap = ctx
                .heaps
                .get_mut(table)
                .ok_or(ExecError::UnknownTable(*table))?;
            for rid in targets {
                let Some(old) = heap.delete(rid) else {
                    continue;
                };
                m.add_pages_written(1);
                for (id, _) in ctx.catalog.indexes_on(*table) {
                    if let Some(ix) = ctx.indexes.get_mut(&id) {
                        let pages = ix.delete_row(rid, &old);
                        m.add_pages_written(pages);
                    }
                }
                m.rows_returned += 1;
            }
        }
        _ => return Err(ExecError::HypotheticalPlan),
    }
    Ok(m)
}

fn insert_one(
    ctx: &mut ExecContext<'_>,
    table: TableId,
    values: &[Scalar],
    params: &[Value],
    m: &mut ActualMetrics,
) -> Result<(), ExecError> {
    let heap = ctx
        .heaps
        .get_mut(&table)
        .ok_or(ExecError::UnknownTable(table))?;
    let rid = heap.insert(values.iter().map(|s| s.resolve(params).clone()).collect());
    m.add_pages_written(1);
    let row = heap.peek(rid).expect("row was just inserted");
    for (id, _) in ctx.catalog.indexes_on(table) {
        if let Some(ix) = ctx.indexes.get_mut(&id) {
            let pages = ix.insert_row(rid, row);
            m.add_pages_written(pages);
        }
    }
    m.rows_returned += 1;
    Ok(())
}

/// Row ids an UPDATE / DELETE applies to, collected before anything is
/// written (the access path may be an index the statement then modifies).
fn find_targets(
    ctx: &ExecContext<'_>,
    table: TableId,
    predicates: &[Predicate],
    dp: &DmlPlan,
    params: &[Value],
    m: &mut ActualMetrics,
) -> Result<Vec<RowId>, ExecError> {
    let mut targets: Vec<RowId> = Vec::new();
    let residual = Residual {
        preds: predicates,
        which: &dp.residual,
        params,
    };
    let covering = matches!(
        dp.access,
        Access::IndexSeek { covering: true, .. } | Access::IndexScan { covering: true, .. }
    );
    if covering {
        // DML needs full rows: re-fetch every leaf entry from the heap and
        // apply the residual to the fetched row, not to the leaf.
        let heap = ctx
            .heaps
            .get(&table)
            .ok_or(ExecError::UnknownTable(table))?;
        let unfiltered = Residual {
            which: &[],
            ..residual
        };
        let mut rids: Vec<RowId> = Vec::new();
        run_access(ctx, table, &dp.access, unfiltered, m, |rid, _| {
            rids.push(rid)
        })?;
        fetch_and_filter(heap, &rids, residual, m, |rid, _| targets.push(rid));
    } else {
        run_access(ctx, table, &dp.access, residual, m, |rid, _| {
            targets.push(rid)
        })?;
    }
    Ok(targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, IndexGeom, PlannerEnv};
    use crate::schema::ColumnId;
    use crate::schema::{ColumnDef, IndexDef, TableDef};
    use crate::stats::TableStats;
    use crate::types::ValueType;

    /// Builds a tiny single-table world with optional index, and optimizes
    /// + executes statements against it.
    struct World {
        catalog: Catalog,
        heaps: BTreeMap<TableId, Heap>,
        indexes: BTreeMap<IndexId, SecondaryIndex>,
        stats: BTreeMap<TableId, TableStats>,
    }

    impl World {
        fn new() -> World {
            let mut catalog = Catalog::new();
            let t = catalog
                .add_table(TableDef::new(
                    "orders",
                    vec![
                        ColumnDef::new("id", ValueType::Int),
                        ColumnDef::new("customer_id", ValueType::Int),
                        ColumnDef::new("status", ValueType::Int),
                        ColumnDef::new("total", ValueType::Float),
                    ],
                ))
                .unwrap();
            let tdef = catalog.table(t).unwrap().clone();
            let mut heap = Heap::new(tdef.avg_row_width());
            for i in 0..2000i64 {
                heap.insert(vec![
                    Value::Int(i),
                    Value::Int(i % 100),
                    Value::Int(i % 4),
                    Value::Float((i % 500) as f64),
                ]);
            }
            let stats = TableStats::build_full(heap.scan_quiet().map(|(_, r)| r), 4);
            let mut heaps = BTreeMap::new();
            heaps.insert(t, heap);
            let mut stats_map = BTreeMap::new();
            stats_map.insert(t, stats);
            World {
                catalog,
                heaps,
                indexes: BTreeMap::new(),
                stats: stats_map,
            }
        }

        fn add_index(&mut self, name: &str, keys: Vec<u32>, incl: Vec<u32>) -> IndexId {
            let t = TableId(0);
            let def = IndexDef::new(
                name,
                t,
                keys.into_iter().map(ColumnId).collect(),
                incl.into_iter().map(ColumnId).collect(),
            );
            let id = self.catalog.add_index(def.clone()).unwrap();
            let tdef = self.catalog.table(t).unwrap();
            let mut ix = SecondaryIndex::new(def, tdef);
            ix.build(&self.heaps[&t]);
            self.indexes.insert(id, ix);
            id
        }

        fn run(&mut self, stmt: &Statement, params: &[Value]) -> ExecResult {
            let r = optimize(&EnvView(self), stmt, params);
            let plan = r.plan;
            let mut ctx = ExecContext {
                catalog: &self.catalog,
                heaps: &mut self.heaps,
                indexes: &mut self.indexes,
            };
            let mut rows = Vec::new();
            let metrics = match (&plan, stmt) {
                (Plan::Select(sp), Statement::Select(q)) => {
                    execute_select(&ctx, q, sp, params, Some(&mut rows)).unwrap()
                }
                _ => execute_dml(&mut ctx, stmt, &plan, params).unwrap(),
            };
            ExecResult { rows, metrics }
        }
    }

    /// What one statement produced: its rows (SELECT) and its metrics.
    struct ExecResult {
        rows: Vec<Row>,
        metrics: ActualMetrics,
    }

    struct EnvView<'a>(&'a World);

    impl PlannerEnv for EnvView<'_> {
        fn table_def(&self, t: TableId) -> &TableDef {
            self.0.catalog.table(t).unwrap()
        }
        fn table_stats(&self, t: TableId) -> &TableStats {
            &self.0.stats[&t]
        }
        fn heap_pages(&self, t: TableId) -> f64 {
            self.0.heaps[&t].page_count() as f64
        }
        fn indexes_on(&self, t: TableId) -> Vec<IndexGeom> {
            self.0
                .catalog
                .indexes_on(t)
                .filter_map(|(id, def)| {
                    self.0.indexes.get(&id).map(|ix| IndexGeom {
                        rref: crate::plan::IndexRef::Real {
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

    fn select_customer(c: i64) -> Statement {
        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::eq(ColumnId(1), c)];
        q.projection = vec![ColumnId(0), ColumnId(3)];
        Statement::Select(q)
    }

    #[test]
    fn seqscan_and_seek_agree_on_results() {
        let mut w = World::new();
        let scan = w.run(&select_customer(7), &[]);
        w.add_index("ix_cust", vec![1], vec![0, 3]);
        let seek = w.run(&select_customer(7), &[]);
        assert_eq!(scan.rows.len(), 20);
        let mut a = scan.rows.clone();
        let mut b = seek.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "index must not change semantics");
        assert!(
            seek.metrics.logical_reads < scan.metrics.logical_reads,
            "seek {} reads vs scan {}",
            seek.metrics.logical_reads,
            scan.metrics.logical_reads
        );
        assert!(seek.metrics.cpu_us < scan.metrics.cpu_us);
    }

    #[test]
    fn residual_predicates_filter() {
        let mut w = World::new();
        w.add_index("ix_cust", vec![1], vec![0, 3]);
        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![
            Predicate::eq(ColumnId(1), 7i64),
            Predicate::cmp(ColumnId(3), CmpOp::Lt, 100.0),
        ];
        q.projection = vec![ColumnId(0)];
        let r = w.run(&Statement::Select(q), &[]);
        // customer 7 rows: ids 7,107,...,1907; totals id%500 -> 7,107,...
        // totals < 100: ids 7, 507, 1007, 1507 (totals 7) and none else? id%500: 7->7,107->107.. so totals <100 are ids 7,507,1007,1507.
        assert_eq!(r.rows.len(), 4);
    }

    #[test]
    fn aggregation_group_by() {
        let mut w = World::new();
        let mut q = SelectQuery::new(TableId(0));
        q.group_by = vec![ColumnId(2)];
        q.aggregates = vec![(AggFunc::Count, ColumnId(0)), (AggFunc::Sum, ColumnId(3))];
        let r = w.run(&Statement::Select(q), &[]);
        assert_eq!(r.rows.len(), 4); // status 0..4
        for row in &r.rows {
            assert_eq!(row[1], Value::Int(500)); // 2000/4 per group
        }
    }

    #[test]
    fn order_by_and_limit() {
        let mut w = World::new();
        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::eq(ColumnId(1), 7i64)];
        q.projection = vec![ColumnId(3), ColumnId(0)];
        q.order_by = vec![crate::query::OrderKey {
            column: ColumnId(3),
            asc: false,
        }];
        q.limit = Some(5);
        let r = w.run(&Statement::Select(q), &[]);
        assert_eq!(r.rows.len(), 5);
        for wdw in r.rows.windows(2) {
            assert!(wdw[0][0] >= wdw[1][0], "descending order violated");
        }
    }

    #[test]
    fn hash_join_matches() {
        let mut w = World::new();
        // Second table: customers(id, region)
        let ct = w
            .catalog
            .add_table(TableDef::new(
                "customers",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("region", ValueType::Int),
                ],
            ))
            .unwrap();
        let mut heap = Heap::new(24);
        for i in 0..100i64 {
            heap.insert(vec![Value::Int(i), Value::Int(i % 10)]);
        }
        let cstats = TableStats::build_full(heap.scan_quiet().map(|(_, r)| r), 2);
        w.heaps.insert(ct, heap);
        w.stats.insert(ct, cstats);

        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::eq(ColumnId(2), 1i64)]; // status = 1: 500 rows
        q.projection = vec![ColumnId(0)];
        q.join = Some(crate::query::JoinSpec {
            table: ct,
            outer_col: ColumnId(1),
            inner_col: ColumnId(0),
            predicates: vec![Predicate::eq(ColumnId(1), 3i64)], // region = 3
            projection: vec![ColumnId(1)],
        });
        let r = w.run(&Statement::Select(q), &[]);
        // status=1: ids 1,5,9... (500 rows); customers region=3: ids 3,13,..93
        // outer rows with customer_id in {3,13,...,93}: customer_id = id%100,
        // ids with id%4==1 and id%100 in {3,13,..,93}: id%100 odd values 13,33,53,73,93 have id%4==1 cases...
        assert!(!r.rows.is_empty());
        for row in &r.rows {
            assert_eq!(row[1], Value::Int(3)); // joined region
        }
    }

    #[test]
    fn inlj_used_with_inner_index_and_matches_hash_join() {
        let mut w = World::new();
        let ct = w
            .catalog
            .add_table(TableDef::new(
                "customers",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("region", ValueType::Int),
                ],
            ))
            .unwrap();
        // Large inner table: per-row index seeks beat building a hash
        // table over the whole thing.
        let mut heap = Heap::new(24);
        for i in 0..20_000i64 {
            heap.insert(vec![Value::Int(i % 100), Value::Int(i % 10)]);
        }
        let cstats = TableStats::build_full(heap.scan_quiet().map(|(_, r)| r), 2);
        w.heaps.insert(ct, heap);
        w.stats.insert(ct, cstats);

        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::eq(ColumnId(1), 7i64)]; // 20 outer rows
        q.projection = vec![ColumnId(0)];
        q.join = Some(crate::query::JoinSpec {
            table: ct,
            outer_col: ColumnId(1),
            inner_col: ColumnId(0),
            predicates: vec![],
            projection: vec![ColumnId(1)],
        });
        let stmt = Statement::Select(q);
        let hash_result = w.run(&stmt, &[]);

        // Add inner index on customers.id: planner should flip to INLJ.
        let def = IndexDef::new("ix_cid", ct, vec![ColumnId(0)], vec![ColumnId(1)]);
        let id = w.catalog.add_index(def.clone()).unwrap();
        let tdef = w.catalog.table(ct).unwrap();
        let mut ix = SecondaryIndex::new(def, tdef);
        ix.build(&w.heaps[&ct]);
        w.indexes.insert(id, ix);
        // Also outer index to keep outer cheap.
        w.add_index("ix_cust", vec![1], vec![0]);

        let r = optimize(&EnvView(&w), &stmt, &[]);
        let uses_inlj = match &r.plan {
            Plan::Select(p) => matches!(
                p.join.as_ref().unwrap().strategy,
                JoinStrategy::IndexNestedLoop { .. }
            ),
            _ => false,
        };
        assert!(uses_inlj, "expected INLJ with inner index: {:?}", r.plan);
        let inlj_result = w.run(&stmt, &[]);
        let mut a = hash_result.rows.clone();
        let mut b = inlj_result.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn insert_maintains_indexes() {
        let mut w = World::new();
        w.add_index("ix_cust", vec![1], vec![0, 3]);
        let ins = Statement::Insert {
            table: TableId(0),
            values: vec![
                Scalar::Lit(Value::Int(9999)),
                Scalar::Lit(Value::Int(7)),
                Scalar::Lit(Value::Int(0)),
                Scalar::Lit(Value::Float(1.0)),
            ],
        };
        let m = w.run(&ins, &[]);
        assert!(m.metrics.logical_writes >= 2, "heap + index writes");
        let r = w.run(&select_customer(7), &[]);
        assert_eq!(r.rows.len(), 21);
    }

    #[test]
    fn delete_maintains_indexes() {
        let mut w = World::new();
        w.add_index("ix_cust", vec![1], vec![0, 3]);
        let del = Statement::Delete {
            table: TableId(0),
            predicates: vec![Predicate::eq(ColumnId(1), 7i64)],
        };
        let m = w.run(&del, &[]);
        assert_eq!(m.metrics.rows_returned, 20);
        let r = w.run(&select_customer(7), &[]);
        assert!(r.rows.is_empty());
        // Index consistent with heap.
        assert_eq!(w.indexes.values().next().unwrap().len(), 1980);
    }

    #[test]
    fn update_moves_index_entries() {
        let mut w = World::new();
        w.add_index("ix_cust", vec![1], vec![0, 3]);
        let upd = Statement::Update {
            table: TableId(0),
            predicates: vec![Predicate::eq(ColumnId(1), 7i64)],
            set: vec![(ColumnId(1), Scalar::Lit(Value::Int(8)))],
        };
        let m = w.run(&upd, &[]);
        assert_eq!(m.metrics.rows_returned, 20);
        assert!(m.metrics.logical_writes > 20, "index maintenance writes");
        assert_eq!(w.run(&select_customer(7), &[]).rows.len(), 0);
        assert_eq!(w.run(&select_customer(8), &[]).rows.len(), 40);
    }

    #[test]
    fn update_untouched_index_is_cheap() {
        let mut w = World::new();
        w.add_index("ix_status", vec![2], vec![]);
        let upd = Statement::Update {
            table: TableId(0),
            predicates: vec![Predicate::eq(ColumnId(0), 5i64)],
            set: vec![(ColumnId(3), Scalar::Lit(Value::Float(0.0)))],
        };
        let m = w.run(&upd, &[]);
        assert_eq!(m.metrics.rows_returned, 1);
        // Only the heap write: the status index doesn't contain `total`.
        assert_eq!(m.metrics.logical_writes, 1);
    }

    #[test]
    fn bulk_insert_inserts_many() {
        let mut w = World::new();
        let before = w.heaps[&TableId(0)].len();
        let bulk = Statement::BulkInsert {
            table: TableId(0),
            values: vec![
                Scalar::Lit(Value::Int(0)),
                Scalar::Lit(Value::Int(0)),
                Scalar::Lit(Value::Int(0)),
                Scalar::Lit(Value::Float(0.0)),
            ],
            rows: 50,
        };
        let m = w.run(&bulk, &[]);
        assert_eq!(m.metrics.rows_returned, 50);
        assert_eq!(w.heaps[&TableId(0)].len(), before + 50);
    }

    #[test]
    fn missing_index_error_on_stale_plan() {
        let mut w = World::new();
        let id = w.add_index("ix_cust", vec![1], vec![0, 3]);
        let stmt = select_customer(7);
        let r = optimize(&EnvView(&w), &stmt, &[]);
        // Drop the index after planning.
        w.catalog.remove_index(id).unwrap();
        w.indexes.remove(&id);
        let ctx = ExecContext {
            catalog: &w.catalog,
            heaps: &mut w.heaps,
            indexes: &mut w.indexes,
        };
        let (q, sp) = match (&stmt, &r.plan) {
            (Statement::Select(q), Plan::Select(sp)) => (q, sp),
            _ => panic!(),
        };
        let err = execute_select(&ctx, q, sp, &[], None).unwrap_err();
        assert!(matches!(err, ExecError::MissingIndex(_)));
    }

    #[test]
    fn join_query_under_a_joinless_plan_is_an_error_not_an_empty_result() {
        let mut w = World::new();
        let stmt = select_customer(7);
        let r = optimize(&EnvView(&w), &stmt, &[]);
        let (Statement::Select(q), Plan::Select(sp)) = (&stmt, &r.plan) else {
            panic!("select plans as select");
        };
        assert!(sp.join.is_none());
        let mut joined = q.clone();
        joined.join = Some(crate::query::JoinSpec {
            table: TableId(0),
            outer_col: ColumnId(1),
            inner_col: ColumnId(0),
            predicates: vec![],
            projection: vec![ColumnId(0)],
        });
        let ctx = ExecContext {
            catalog: &w.catalog,
            heaps: &mut w.heaps,
            indexes: &mut w.indexes,
        };
        let mut rows = Vec::new();
        let err = execute_select(&ctx, &joined, sp, &[], Some(&mut rows)).unwrap_err();
        assert!(matches!(err, ExecError::PlanShape(_)), "{err}");
        assert!(rows.is_empty());
    }

    #[test]
    fn metrics_scale_with_work() {
        let mut w = World::new();
        let small = w.run(&select_customer(7), &[]);
        let mut q = SelectQuery::new(TableId(0));
        q.projection = vec![ColumnId(0)];
        let big = w.run(&Statement::Select(q), &[]);
        assert!(big.metrics.cpu_us > small.metrics.cpu_us);
        assert!(big.metrics.rows_examined >= small.metrics.rows_examined);
        assert_eq!(big.rows.len(), 2000);
    }
}
