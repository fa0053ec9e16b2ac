//! Plan executor with actual-work accounting.
//!
//! The executor interprets a [`Plan`] over real storage and **counts** the
//! work it does — rows examined, predicates evaluated, logical pages read
//! and written, hash operations, sort sizes — then converts those counts
//! into CPU microseconds with the *same* constants the optimizer charges
//! its estimates (`CPU_PER_PAGE` and its siblings in
//! `crate::optimizer`). Estimated and actual CPU time therefore differ
//! only where cardinality estimation erred, which is precisely the gap the
//! paper's validation machinery (§6) exists to catch.
//!
//! # One row layout
//!
//! The control plane consumes these counts and never a result set, so the
//! pipeline copies nothing it does not have to. A heap and a B+tree leaf
//! keep rows alike ([`crate::heap`], [`crate::btree`]): a slice of typed
//! runs ([`crate::column`]), one per column, beside one dictionary per
//! column. An access path hands each qualifying row on as a `RowView`, a
//! slice of runs and a position — a heap's columns and the row's slot, or
//! a covering leaf's runs and the entry's place in the leaf — and builds
//! once, for all its rows, the `Layout` that says which run holds which
//! column and each run's type and dictionary. No operator asks which
//! storage a row came from; the hot ones read the runs, not `Value`s:
//!
//! - The residual predicates are compiled once per access against the
//!   layout's runs. One kernel, `column::select`, runs them over a
//!   stretch of rows 64 at a time — a heap's slots masked with its live
//!   bits, or the positions of a leaf a seek handed on — testing the
//!   later predicates only on words where some row survives.
//! - The count sink counts distinct GROUP BY keys by their words
//!   (`Typed::word`) read from the group runs: for one column, a bit per
//!   dictionary code for a string and a set of 64-bit words otherwise;
//!   for several, a set of rows hashed and compared by their words.
//! - The hash join keys its build side by words when both key columns
//!   are of one type other than a string; its table chains each key's
//!   rows in arrival order, so a key costs no allocation of its own.
//!
//! The kernels reproduce `Value`'s order and equality exactly, each
//! comparing within its column's type: a constant of the other numeric
//! type is taken into the column's type exactly, `-0.0` equals `0.0`,
//! and a NaN or a constant of another type is ordered alike against
//! every value (`crate::column`). Join keys of two types or two
//! dictionaries, the index nested-loop join's seek keys, ORDER BY and
//! the rows sink read each value as a `Value` built from its run and the
//! layout's dictionary; `Value`'s `Eq` and `Hash` agree with its order,
//! so a hash join and a seek match the same keys. Storage is only
//! borrowed shared for the whole statement, so a view stays valid until
//! the sink. The executor's temporary hash tables (group keys, the
//! join's build side) hash a word at a time with a multiply, not with
//! SipHash: they live for one statement and nothing reads them in hash
//! order.
//!
//! # The write rule
//!
//! Every column stores its declared type, so DML makes each value it
//! writes fit its column before anything else happens
//! ([`ValueType::fit`]): NULL fits every column, an `Int` written to a
//! `Float` column is stored as its `f64` if that equals it, and any
//! other misfit or a NaN refuses the statement with
//! [`ExecError::TypeMismatch`] before it charges a page or writes a row
//! or an index entry.
//!
//! # Two sinks
//!
//! A result nobody reads is not computed; its cost still is. Rows flow
//! from the access path, through the join if there is one, into one of
//! two sinks, picked by whether the caller wants rows:
//!
//! - The **count sink** (no `out`: every `Database::execute`, so all
//!   workload and control-plane traffic) keeps the number of rows and,
//!   under GROUP BY, a set of distinct group keys — words, or borrowed
//!   rows hashed and compared by their group words, probed only when a
//!   row's key differs from the previous row's. It evaluates no aggregate,
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

use crate::btree::Entries;
use crate::catalog::Catalog;
use crate::column::{select, Dict, Test, Typed};
use crate::heap::{Heap, RowId};
use crate::index::{ColBound, SecondaryIndex};
use crate::optimizer::{
    sort_cpu, CPU_PER_HASH_OP, CPU_PER_OUTPUT_ROW, CPU_PER_PAGE, CPU_PER_PRED, CPU_PER_ROW,
    CPU_PER_WRITE_PAGE,
};
use crate::plan::{
    Access, AggStrategy, DmlPlan, IndexRef, JoinStrategy, Plan, RangeBound, SelectPlan,
};
use crate::query::{AggFunc, CmpOp, Predicate, Scalar, SelectQuery, Statement};
use crate::schema::{ColumnId, IndexId, TableDef, TableId};
use crate::types::{Row, Value, ValueType};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

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
    /// A write gives a column a value that does not fit its declared type
    /// ([`ValueType::fit`]); the statement is refused whole, before it
    /// charges or writes anything.
    TypeMismatch {
        table: String,
        column: String,
        expected: ValueType,
        got: Value,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MissingIndex(n) => write!(f, "plan references missing index '{n}'"),
            ExecError::HypotheticalPlan => write!(f, "cannot execute a what-if plan"),
            ExecError::UnknownTable(t) => write!(f, "unknown table {t}"),
            ExecError::PlanShape(what) => write!(f, "plan does not fit its statement: {what}"),
            ExecError::TypeMismatch {
                table,
                column,
                expected,
                got,
            } => write!(
                f,
                "{got} does not fit {table}.{column}, a {expected} column"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Mutable storage the executor runs against.
pub(crate) struct ExecContext<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) heaps: &'a mut BTreeMap<TableId, Heap>,
    pub(crate) indexes: &'a mut BTreeMap<IndexId, SecondaryIndex>,
}

/// One input row as the operators see it, borrowed from storage for the
/// length of the statement (`'c`): the typed runs of its layout and its
/// position in them — a heap's columns and the row's slot, or a covering
/// index leaf's runs (key columns, then included columns) and the entry's
/// place in the leaf. Which column is in which run is the [`Layout`] of
/// the access that produced the row.
#[derive(Clone, Copy)]
struct RowView<'c> {
    runs: &'c [Typed],
    pos: usize,
}

impl RowView<'_> {
    /// The word ([`Typed::word`]) of the value in run `s`, `None` for
    /// NULL.
    #[inline]
    fn word(self, s: usize) -> Option<u64> {
        let run = &self.runs[s];
        (!run.is_null(self.pos)).then(|| run.word(self.pos))
    }

    /// Whether every test of `tests` (compiled by [`Layout::compile`])
    /// holds on the row.
    fn keeps(self, tests: &[(usize, Test)]) -> bool {
        tests.iter().all(|(s, t)| t.holds(&self.runs[*s], self.pos))
    }
}

/// How the rows of one access lay out the table's columns: the run each
/// column is in, and each run's type and dictionary. A heap keeps column
/// `c` in run `c`; a covering index, in its place among the leaf's key
/// columns, then included columns.
struct Layout<'c> {
    /// The table's heap, which a non-covering access fetches rows from.
    heap: &'c Heap,
    /// Each column's run, by `ColumnId`; `None` for a column the rows
    /// lack.
    slots: &'c [Option<usize>],
    /// A run of each slot's type (the heap's own, or a tree's empty
    /// ones), read for its type.
    typed: &'c [Typed],
    dicts: &'c [Dict],
}

impl<'c> Layout<'c> {
    /// The layout of `heap`'s rows, or of the entries of `leaf` when the
    /// access is covering.
    fn new(heap: &'c Heap, leaf: Option<&'c SecondaryIndex>) -> Layout<'c> {
        let ((typed, dicts), slots) = match leaf {
            None => (heap.columns(), &heap.slots[..]),
            Some(ix) => ((ix.tree().types(), ix.tree().dicts()), &ix.slots[..]),
        };
        Layout {
            heap,
            slots,
            typed,
            dicts,
        }
    }

    /// The type of run `s`.
    fn ty(&self, s: usize) -> ValueType {
        self.typed[s].ty()
    }

    /// The run column `c` is in.
    fn slot(&self, c: ColumnId) -> usize {
        // The planner marks an access covering only when the leaf carries
        // every column the plan reads from it.
        let slot = self.slots.get(c.0 as usize).copied().flatten();
        slot.unwrap_or_else(|| panic!("a covering read of {c}, which the index lacks"))
    }

    fn slots(&self, cols: &[ColumnId]) -> Vec<usize> {
        cols.iter().map(|&c| self.slot(c)).collect()
    }

    /// The value in run `s` of `row`.
    fn at(&self, row: RowView, s: usize) -> Value {
        row.runs[s].value(row.pos, &self.dicts[s])
    }

    /// The value of column `c` in `row`.
    fn value(&self, row: RowView, c: ColumnId) -> Value {
        self.at(row, self.slot(c))
    }

    /// `preds` under `params`, compiled against the runs they read: each
    /// test beside its run.
    fn compile<'q>(
        &self,
        preds: impl IntoIterator<Item = &'q Predicate>,
        params: &'q [Value],
    ) -> Vec<(usize, Test)> {
        let test = |p: &Predicate| {
            let s = self.slot(p.column);
            let rhs = p.value.resolve(params);
            (s, Test::new(self.ty(s), &self.dicts[s], p.op, rhs))
        };
        preds.into_iter().map(test).collect()
    }
}

/// The layout of the rows `access` emits from `table` ([`Layout::new`]),
/// or the error that fails the statement where the table's heap or a
/// covering access's index is not there.
fn layout<'c>(
    ctx: &'c ExecContext<'_>,
    table: TableId,
    access: &Access,
) -> Result<Layout<'c>, ExecError> {
    let heap = ctx
        .heaps
        .get(&table)
        .ok_or(ExecError::UnknownTable(table))?;
    let leaf = match access {
        Access::IndexSeek {
            index,
            covering: true,
            ..
        }
        | Access::IndexScan {
            index,
            covering: true,
        } => Some(find_index(ctx, index)?),
        _ => None,
    };
    Ok(Layout::new(heap, leaf))
}

/// The materialized index `index` names.
fn find_index<'c>(
    ctx: &'c ExecContext<'_>,
    index: &IndexRef,
) -> Result<&'c SecondaryIndex, ExecError> {
    let id = index.real_id().ok_or(ExecError::HypotheticalPlan)?;
    ctx.indexes
        .get(&id)
        .ok_or_else(|| ExecError::MissingIndex(index.name().to_string()))
}

/// The hasher of the executor's temporary hash tables (the count sink's
/// group keys, the hash join's build side, the rows sink's groups): one
/// add and one multiply a word, where std's SipHash spends rounds. It is
/// deterministic; nothing reads these tables in hash order, so the hash
/// moves no output.
#[derive(Default, Clone, Copy)]
pub struct WordHasher(u64);

/// `BuildHasher` of [`WordHasher`].
pub(crate) type WordState = BuildHasherDefault<WordHasher>;

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = self
            .0
            .wrapping_add(word)
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            // The tail's length in the top byte keeps "a" apart from "a\0".
            self.add(u64::from_le_bytes(w) | ((tail.len() as u64) << 56));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best bits high; the table indexes by
        // the low ones.
        self.0.rotate_left(26)
    }
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

/// The residual predicates of one access path — `preds[i]` for each `i`
/// in `which` — and the parameter binding they are evaluated under.
#[derive(Clone, Copy)]
struct Residual<'q> {
    preds: &'q [Predicate],
    which: &'q [usize],
    params: &'q [Value],
}

impl<'q> Residual<'q> {
    /// The predicates, compiled against the runs of `layout`.
    fn compile(self, layout: &Layout) -> Vec<(usize, Test)> {
        layout.compile(self.which.iter().map(|&i| &self.preds[i]), self.params)
    }

    /// Charge the evaluation of every residual predicate on `rows` rows.
    fn charge(self, m: &mut ActualMetrics, rows: u64) {
        if !self.which.is_empty() {
            m.add_pred_evals(rows * self.which.len() as u64);
        }
    }
}

/// Run an access path, apply the plan's residual predicates, and hand
/// every surviving row to `emit` as a view laid out as `layout` says
/// ([`layout`]): a heap row (sequential scan, or bookmark lookup behind a
/// non-covering index) or the index leaf itself when the access is
/// covering. The predicates run over the typed runs a word of rows at a
/// time ([`select`]).
fn run_access<'c>(
    ctx: &'c ExecContext<'_>,
    access: &Access,
    layout: &Layout<'c>,
    residual: Residual,
    m: &mut ActualMetrics,
    mut emit: impl FnMut(RowId, RowView<'c>),
) -> Result<(), ExecError> {
    let heap = layout.heap;
    let tests = residual.compile(layout);
    let (index, covering) = match access {
        Access::SeqScan => {
            m.add_pages_read(heap.page_count());
            m.add_rows_examined(heap.len() as u64);
            residual.charge(m, heap.len() as u64);
            let (runs, live) = (heap.columns().0, heap.live());
            select(runs, &tests, 0..live.len(), Some(live), |pos| {
                emit(RowId(pos as u64), RowView { runs, pos })
            });
            return Ok(());
        }
        Access::IndexSeek {
            index, covering, ..
        }
        | Access::IndexScan { index, covering } => (index, *covering),
    };
    let ix = find_index(ctx, index)?;
    let mut rids: Vec<RowId> = Vec::new();
    let mut visit = |found: Entries<'c>| {
        if covering {
            let runs = found.runs();
            select(runs, &tests, found.positions(), None, |pos| {
                emit(found.rid(pos), RowView { runs, pos })
            });
        } else {
            rids.extend(found.positions().map(|i| found.rid(i)));
        }
    };
    let (n, pages) = match access {
        Access::IndexSeek { eq, lo, hi, .. } => {
            let params = residual.params;
            let eq_vals = eq.iter().map(|s| s.resolve(params));
            let lo_b = resolve_bound(lo, params, true);
            let hi_b = resolve_bound(hi, params, false);
            ix.seek_visit(eq_vals, lo_b, hi_b, &mut visit)
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
        fetch_and_filter(heap, &rids, &tests, residual, m, emit);
    }
    Ok(())
}

/// Bookmark-lookup the given row ids (one page each) and emit the rows
/// on which `tests` (compiled against the heap's layout) hold.
fn fetch_and_filter<'c>(
    heap: &'c Heap,
    rids: &[RowId],
    tests: &[(usize, Test)],
    residual: Residual,
    m: &mut ActualMetrics,
    mut emit: impl FnMut(RowId, RowView<'c>),
) {
    let runs = heap.columns().0;
    let mut fetched = 0u64;
    for &rid in rids {
        m.add_pages_read(1);
        if heap.is_live(rid) {
            fetched += 1;
            let row = RowView {
                runs,
                pos: rid.0 as usize,
            };
            if row.keeps(tests) {
                emit(rid, row);
            }
        }
    }
    residual.charge(m, fetched);
}

/// Run a SELECT plan's access path, whose rows are laid out as `outer`
/// says, and its join, handing every result pair (outer row, inner row)
/// to `sink` — the inner row is `None` without a join. Charges the access
/// and the join, and returns the layout of the inner rows, if there were
/// any; what the sink does is charged by [`charge_output`].
fn produce<'c>(
    ctx: &'c ExecContext<'_>,
    q: &SelectQuery,
    plan: &SelectPlan,
    params: &[Value],
    outer: &Layout<'c>,
    m: &mut ActualMetrics,
    mut sink: impl FnMut(RowView<'c>, Option<RowView<'c>>),
) -> Result<Option<Layout<'c>>, ExecError> {
    let residual = Residual {
        preds: &q.predicates,
        which: &plan.residual,
        params,
    };
    let (jspec, jplan) = match (&q.join, &plan.join) {
        (None, _) => {
            run_access(ctx, &plan.access, outer, residual, m, |_, v| sink(v, None))?;
            return Ok(None);
        }
        (Some(_), None) => return Err(ExecError::PlanShape("join query without a join plan")),
        (Some(jspec), Some(jplan)) => (jspec, jplan),
    };
    let mut outers: Vec<RowView> = Vec::new();
    run_access(ctx, &plan.access, outer, residual, m, |_, v| outers.push(v))?;
    let outer_key = outer.slot(jspec.outer_col);
    match &jplan.strategy {
        JoinStrategy::Hash { inner_access } => {
            let layout = layout(ctx, jspec.table, inner_access)?;
            let inner_key = layout.slot(jspec.inner_col);
            let residual = Residual {
                preds: &jspec.predicates,
                which: &jplan.residual,
                params,
            };
            let inner = Inner {
                access: inner_access,
                layout: &layout,
                residual,
            };
            // Typed words when both keys are columns of one type, other
            // than a string: a dictionary code means nothing in another
            // column.
            let ty = outer.ty(outer_key);
            if ty == layout.ty(inner_key) && ty != ValueType::Str {
                let (i, o) = (
                    |v: RowView| v.word(inner_key),
                    |v: RowView| v.word(outer_key),
                );
                hash_join(ctx, inner, m, outers, i, o, sink)?;
            } else {
                let inner_value = |v| layout.at(v, inner_key);
                let outer_value = |v| outer.at(v, outer_key);
                hash_join(ctx, inner, m, outers, inner_value, outer_value, sink)?;
            }
            Ok(Some(layout))
        }
        JoinStrategy::IndexNestedLoop {
            inner_index,
            covering,
        } => {
            let id = inner_index.real_id().ok_or(ExecError::HypotheticalPlan)?;
            if outers.is_empty() {
                // Nothing to seek: a missing index fails the statement at
                // its first outer row, not before.
                return Ok(None);
            }
            let ix = (ctx.indexes.get(&id))
                .ok_or_else(|| ExecError::MissingIndex(inner_index.name().into()))?;
            let heap = (ctx.heaps.get(&jspec.table)).ok_or(ExecError::UnknownTable(jspec.table))?;
            let layout = Layout::new(heap, covering.then_some(ix));
            let tests = layout.compile(&jspec.predicates, params);
            let runs = heap.columns().0;
            let mut rids: Vec<RowId> = Vec::new();
            let mut matched: Vec<RowView> = Vec::new();
            for outer_row in outers {
                let key = outer.at(outer_row, outer_key);
                let (lo, hi) = (ColBound::Unbounded, ColBound::Unbounded);
                rids.clear();
                matched.clear();
                let (n, pages) = ix.seek_visit([&key], lo, hi, |found| {
                    if *covering {
                        let runs = found.runs();
                        matched.extend(found.positions().map(|pos| RowView { runs, pos }));
                    } else {
                        rids.extend(found.positions().map(|i| found.rid(i)));
                    }
                });
                m.add_pages_read(pages);
                m.add_rows_examined(n);
                for &rid in &rids {
                    m.add_pages_read(1);
                    if heap.is_live(rid) {
                        let pos = rid.0 as usize;
                        matched.push(RowView { runs, pos });
                    }
                }
                let evals = matched.len() as u64 * jspec.predicates.len() as u64;
                m.add_pred_evals(evals);
                for &inner in matched.iter().filter(|v| v.keeps(&tests)) {
                    sink(outer_row, Some(inner));
                }
            }
            Ok(Some(layout))
        }
    }
}

/// The inner side of a hash join: its access path, the layout of the
/// rows it emits and the residual predicates on it.
#[derive(Clone, Copy)]
struct Inner<'q, 'c> {
    access: &'q Access,
    layout: &'q Layout<'c>,
    residual: Residual<'q>,
}

/// Hash join: build on the inner rows by `inner_key`, then hand every
/// outer row, in order, to `sink` beside each inner row of an equal
/// `outer_key`, in the order the inner rows arrived.
fn hash_join<'c, K: Hash + Eq>(
    ctx: &'c ExecContext<'_>,
    inner: Inner<'_, 'c>,
    m: &mut ActualMetrics,
    outers: Vec<RowView<'c>>,
    inner_key: impl Fn(RowView<'c>) -> K,
    outer_key: impl Fn(RowView<'c>) -> K,
    mut sink: impl FnMut(RowView<'c>, Option<RowView<'c>>),
) -> Result<(), ExecError> {
    let mut build = BuildSide::default();
    run_access(
        ctx,
        inner.access,
        inner.layout,
        inner.residual,
        m,
        |_, v| build.push(inner_key(v), v),
    )?;
    m.add_hash_ops(build.rows.len() as u64);
    m.add_hash_ops(outers.len() as u64);
    for outer in outers {
        for inner in build.matches(&outer_key(outer)) {
            sink(outer, Some(inner));
        }
    }
    Ok(())
}

/// The build side of a hash join: each key's rows chained in arrival
/// order through `next`, so a key costs one table entry and no vector.
struct BuildSide<'c, K> {
    /// A key's first and last row.
    heads: HashMap<K, (u32, u32), WordState>,
    /// The row after each row of its key ([`END`](Self::END) at the last).
    next: Vec<u32>,
    rows: Vec<RowView<'c>>,
}

impl<K> Default for BuildSide<'_, K> {
    fn default() -> Self {
        BuildSide {
            heads: HashMap::default(),
            next: Vec::new(),
            rows: Vec::new(),
        }
    }
}

impl<'c, K: Hash + Eq> BuildSide<'c, K> {
    const END: u32 = u32::MAX;

    fn push(&mut self, key: K, row: RowView<'c>) {
        let i = u32::try_from(self.rows.len()).expect("fewer than 2^32 build rows");
        self.rows.push(row);
        self.next.push(Self::END);
        match self.heads.entry(key) {
            Entry::Occupied(mut e) => {
                let last = &mut e.get_mut().1;
                self.next[*last as usize] = i;
                *last = i;
            }
            Entry::Vacant(e) => {
                e.insert((i, i));
            }
        }
    }

    /// The rows of `key`, in arrival order.
    fn matches(&self, key: &K) -> impl Iterator<Item = RowView<'c>> + '_ {
        let mut at = self.heads.get(key).map_or(Self::END, |&(first, _)| first);
        std::iter::from_fn(move || {
            (at != Self::END).then(|| {
                let row = self.rows[at as usize];
                at = self.next[at as usize];
                row
            })
        })
    }
}

/// ORDER BY comparison of two rows of any representation: `col` reads a
/// key column's value from one, or `None` for a key the row does not
/// carry (which is then skipped).
fn order_cmp<'v, R: Copy>(
    order: &[crate::query::OrderKey],
    (a, b): (R, R),
    col: impl Fn(R, ColumnId) -> Option<Cow<'v, Value>>,
) -> std::cmp::Ordering {
    for o in order {
        let (Some(x), Some(y)) = (col(a, o.column), col(b, o.column)) else {
            continue;
        };
        let ord = if o.asc {
            x.cmp(&y)
        } else {
            x.cmp(&y).reverse()
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Execute a SELECT plan. The projected rows are appended to `out` when
/// the caller passes one (the rows sink); otherwise they are only counted
/// (the count sink). The metrics are the same either way.
pub(crate) fn execute_select(
    ctx: &ExecContext<'_>,
    q: &SelectQuery,
    plan: &SelectPlan,
    params: &[Value],
    out: Option<&mut Vec<Row>>,
) -> Result<ActualMetrics, ExecError> {
    let mut m = ActualMetrics::default();
    let outer = layout(ctx, q.table, &plan.access)?;
    let Some(out) = out else {
        let group = outer.slots(&q.group_by);
        let mut count = Counter::new(&group, &outer);
        produce(ctx, q, plan, params, &outer, &mut m, |row, _| {
            count.push(row)
        })?;
        charge_output(&mut m, q, plan, count.rows, count.groups());
        return Ok(m);
    };

    let mut joined: Vec<(RowView, Option<RowView>)> = Vec::new();
    let inner = produce(ctx, q, plan, params, &outer, &mut m, |outer, inner| {
        joined.push((outer, inner))
    })?;
    let sorts = plan.needs_sort && !q.order_by.is_empty();
    if is_aggregate(q) {
        let mut groups = aggregate(q, &outer, &joined);
        let returned = charge_output(&mut m, q, plan, joined.len() as u64, groups.len() as u64);
        if sorts {
            // ORDER BY on a group column sorts by its position in the key.
            groups.sort_by(|a, b| {
                order_cmp(&q.order_by, (a, b), |row: &Row, c| {
                    let i = q.group_by.iter().position(|g| *g == c)?;
                    Some(Cow::Borrowed(&row[i]))
                })
            });
        }
        out.extend(groups.into_iter().take(returned));
    } else {
        let returned = charge_output(&mut m, q, plan, joined.len() as u64, 0);
        if sorts {
            // Sort the source rows, *before* projection, so ORDER BY
            // columns need not be projected.
            let col = |v, c| Some(Cow::Owned(outer.value(v, c)));
            joined.sort_by(|(a, _), (b, _)| order_cmp(&q.order_by, (*a, *b), col));
        }
        // LIMIT first, then project what is left: primary columns, then
        // join columns.
        out.extend(joined[..returned].iter().map(|&(o, i)| {
            let mut row: Row = q.projection.iter().map(|&c| outer.value(o, c)).collect();
            if let (Some(jspec), Some(i), Some(inner)) = (&q.join, i, &inner) {
                row.extend(jspec.projection.iter().map(|&c| inner.value(i, c)));
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
/// distinct keys among them.
struct Counter<'c, 'q> {
    rows: u64,
    keys: Keys<'c, 'q>,
}

/// The distinct GROUP BY keys a [`Counter`] has seen. Every row comes from
/// one access, so a group column's words ([`Typed::word`]) are equal
/// exactly where its values are.
enum Keys<'c, 'q> {
    /// No GROUP BY.
    None,
    /// Rows grouped on one column: its run, whether a NULL key came, and
    /// the words that did.
    Word {
        slot: usize,
        null: bool,
        seen: WordSet,
    },
    /// Rows grouped on several columns. A row's key is probed in the set
    /// only when it differs from the previous row's, so a run of equal
    /// keys — input in index order — costs one comparison a row.
    Rows {
        /// The group columns' runs.
        group: &'q [usize],
        keys: HashSet<GroupKey<'c, 'q>, WordState>,
        last: Option<GroupKey<'c, 'q>>,
    },
}

/// Distinct words: a bit per dictionary code, or a set of words (probed
/// only when a word differs from the previous one).
enum WordSet {
    Codes(Vec<u64>),
    Hash {
        set: HashSet<u64, WordState>,
        last: Option<u64>,
    },
}

/// A row standing for its GROUP BY key: hashed and compared by the words
/// in the group runs, read through the row, so a key holds no values of
/// its own.
#[derive(Clone, Copy)]
struct GroupKey<'c, 'q> {
    row: RowView<'c>,
    group: &'q [usize],
}

impl Hash for GroupKey<'_, '_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &s in self.group {
            self.row.word(s).hash(state);
        }
    }
}

impl PartialEq for GroupKey<'_, '_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.row, other.row);
        self.group.iter().all(|&s| a.word(s) == b.word(s))
    }
}

impl Eq for GroupKey<'_, '_> {}

impl<'c, 'q> Counter<'c, 'q> {
    /// A sink for rows laid out as `layout` says, whose group columns are
    /// in the runs `group`.
    fn new(group: &'q [usize], layout: &Layout) -> Counter<'c, 'q> {
        let keys = match *group {
            [] => Keys::None,
            [slot] => Keys::Word {
                slot,
                null: false,
                seen: match layout.ty(slot) {
                    ValueType::Str => {
                        WordSet::Codes(vec![0; layout.dicts[slot].len().div_ceil(64)])
                    }
                    _ => WordSet::Hash {
                        set: HashSet::default(),
                        last: None,
                    },
                },
            },
            _ => Keys::Rows {
                group,
                keys: HashSet::default(),
                last: None,
            },
        };
        Counter { rows: 0, keys }
    }

    fn push(&mut self, row: RowView<'c>) {
        self.rows += 1;
        match &mut self.keys {
            Keys::None => {}
            Keys::Word { slot, null, seen } => {
                let Some(w) = row.word(*slot) else {
                    *null = true;
                    return;
                };
                match seen {
                    WordSet::Codes(bits) => bits[w as usize / 64] |= 1 << (w % 64),
                    WordSet::Hash { set, last } => {
                        if *last != Some(w) {
                            set.insert(w);
                            *last = Some(w);
                        }
                    }
                }
            }
            Keys::Rows { group, keys, last } => {
                let key = GroupKey { row, group };
                if *last != Some(key) {
                    keys.insert(key);
                    *last = Some(key);
                }
            }
        }
    }

    /// The groups the rows form: one per distinct key, or without GROUP
    /// BY one for the whole input — none when no row qualified.
    fn groups(&self) -> u64 {
        match &self.keys {
            Keys::None => self.rows.min(1),
            Keys::Word { null, seen, .. } => {
                let words = match seen {
                    WordSet::Codes(bits) => bits.iter().map(|w| w.count_ones() as usize).sum(),
                    WordSet::Hash { set, .. } => set.len(),
                };
                words as u64 + u64::from(*null)
            }
            Keys::Rows { keys, .. } => keys.len() as u64,
        }
    }
}

/// The rows sink's aggregation over rows laid out as `layout` says: one
/// row per group — the key values, then the aggregates — in key order.
fn aggregate(
    q: &SelectQuery,
    layout: &Layout,
    joined: &[(RowView<'_>, Option<RowView<'_>>)],
) -> Vec<Row> {
    let group = layout.slots(&q.group_by);
    let inputs: Vec<usize> = q.aggregates.iter().map(|&(_, c)| layout.slot(c)).collect();
    // One probe per input row; a key is kept only when its group is new.
    let mut index: HashMap<Vec<Value>, usize, WordState> = HashMap::default();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let mut key: Vec<Value> = Vec::with_capacity(group.len());
    for &(outer, _) in joined {
        key.clear();
        key.extend(group.iter().map(|&s| layout.at(outer, s)));
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
        for (st, &s) in states[g].iter_mut().zip(&inputs) {
            st.update(layout.at(outer, s));
        }
    }
    // `Value`'s order over the keys, first-seen group first on a tie:
    // the order a `BTreeMap` keyed by the group key iterates in.
    let mut groups: Vec<(Vec<Value>, usize)> = index.into_iter().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    groups
        .into_iter()
        .map(|(mut row, g)| {
            row.extend(states[g].iter().map(AggState::finish));
            row
        })
        .collect()
}

/// Running state of one aggregate: only what its function reads.
#[derive(Debug, Clone)]
struct AggState {
    func: AggFunc,
    count: u64,
    sum: f64,
    /// Running minimum or maximum, for `Min` / `Max`.
    extreme: Option<Value>,
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        AggState {
            func,
            count: 0,
            sum: 0.0,
            extreme: None,
        }
    }

    fn update(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        let extreme = self.extreme.as_ref();
        match self.func {
            AggFunc::Count => self.count += 1,
            AggFunc::Sum => self.sum += v.as_f64(),
            AggFunc::Avg => {
                self.count += 1;
                self.sum += v.as_f64();
            }
            AggFunc::Min if extreme.is_none_or(|m| v < *m) => self.extreme = Some(v),
            AggFunc::Max if extreme.is_none_or(|m| v > *m) => self.extreme = Some(v),
            AggFunc::Min | AggFunc::Max => {}
        }
    }

    fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Min | AggFunc::Max => self.extreme.clone().unwrap_or(Value::Null),
            AggFunc::Avg if self.count == 0 => Value::Null,
            AggFunc::Avg => Value::Float(self.sum / self.count as f64),
        }
    }
}

/// Execute a DML statement (or INSERT) under its plan.
pub(crate) fn execute_dml(
    ctx: &mut ExecContext<'_>,
    stmt: &Statement,
    plan: &Plan,
    params: &[Value],
) -> Result<ActualMetrics, ExecError> {
    let mut m = ActualMetrics::default();
    match (stmt, plan) {
        (Statement::Insert { table, values }, Plan::Insert { .. }) => {
            let row = fit_row(table_def(ctx.catalog, *table)?, values, params)?;
            insert_one(ctx, *table, row, &mut m)?;
        }
        (
            Statement::BulkInsert {
                table,
                values,
                rows,
            },
            Plan::Insert { .. },
        ) => {
            let row = fit_row(table_def(ctx.catalog, *table)?, values, params)?;
            for _ in 0..*rows {
                insert_one(ctx, *table, row.clone(), &mut m)?;
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
            let def = table_def(ctx.catalog, *table)?;
            let set = (set.iter())
                .map(|(c, s)| Ok((*c, fit(def, *c, s.resolve(params).clone())?)))
                .collect::<Result<Vec<(ColumnId, Value)>, ExecError>>()?;
            let targets = find_targets(ctx, *table, predicates, dp, params, &mut m)?;
            let heap = ctx
                .heaps
                .get_mut(table)
                .ok_or(ExecError::UnknownTable(*table))?;
            for rid in targets {
                if !heap.is_live(rid) {
                    continue;
                }
                m.add_pages_written(1);
                // Each index reads its own leaf columns, and only when a
                // SET column is among them.
                for (id, _) in ctx.catalog.indexes_on(*table) {
                    if let Some(ix) = ctx.indexes.get_mut(&id) {
                        let pages = ix.update_set(rid, heap, &set);
                        m.add_pages_written(pages);
                    }
                }
                for (c, v) in &set {
                    heap.set(rid, c.0 as usize, v.clone());
                }
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
                if !heap.is_live(rid) {
                    continue;
                }
                m.add_pages_written(1);
                // Each index reads its key columns before the row goes.
                for (id, _) in ctx.catalog.indexes_on(*table) {
                    if let Some(ix) = ctx.indexes.get_mut(&id) {
                        let pages = ix.delete_from(rid, heap);
                        m.add_pages_written(pages);
                    }
                }
                heap.delete(rid);
                m.rows_returned += 1;
            }
        }
        _ => return Err(ExecError::HypotheticalPlan),
    }
    Ok(m)
}

/// `table`'s definition, or the error for a table the catalog lacks.
fn table_def(catalog: &Catalog, table: TableId) -> Result<&TableDef, ExecError> {
    catalog
        .table(table)
        .map_err(|_| ExecError::UnknownTable(table))
}

/// `v`, written to column `c` of table `def`, made to fit the column's
/// declared type ([`ValueType::fit`]); the error that refuses the
/// statement if it does not.
fn fit(def: &TableDef, c: ColumnId, v: Value) -> Result<Value, ExecError> {
    let col = def.column(c);
    col.ty.fit(v).map_err(|got| ExecError::TypeMismatch {
        table: def.name.clone(),
        column: col.name.clone(),
        expected: col.ty,
        got,
    })
}

/// The row an INSERT of `values` under `params` writes, each value made
/// to [`fit`] its column.
fn fit_row(def: &TableDef, values: &[Scalar], params: &[Value]) -> Result<Row, ExecError> {
    (values.iter().zip(0..))
        .map(|(s, c)| fit(def, ColumnId(c), s.resolve(params).clone()))
        .collect()
}

/// Insert `row`, whose values fit their columns, and maintain every index
/// on the table.
fn insert_one(
    ctx: &mut ExecContext<'_>,
    table: TableId,
    row: Row,
    m: &mut ActualMetrics,
) -> Result<(), ExecError> {
    let heap = ctx
        .heaps
        .get_mut(&table)
        .ok_or(ExecError::UnknownTable(table))?;
    let rid = heap.next_id();
    m.add_pages_written(1);
    for (id, _) in ctx.catalog.indexes_on(table) {
        if let Some(ix) = ctx.indexes.get_mut(&id) {
            let pages = ix.insert_row(rid, &row);
            m.add_pages_written(pages);
        }
    }
    heap.insert(row);
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
    let rows = layout(ctx, table, &dp.access)?;
    let covering = matches!(
        dp.access,
        Access::IndexSeek { covering: true, .. } | Access::IndexScan { covering: true, .. }
    );
    if covering {
        // DML needs full rows: re-fetch every leaf entry from the heap and
        // apply the residual to the fetched row, not to the leaf.
        let heap = rows.heap;
        let unfiltered = Residual {
            which: &[],
            ..residual
        };
        let mut rids: Vec<RowId> = Vec::new();
        run_access(ctx, &dp.access, &rows, unfiltered, m, |rid, _| {
            rids.push(rid)
        })?;
        let tests = residual.compile(&Layout::new(heap, None));
        fetch_and_filter(heap, &rids, &tests, residual, m, |rid, _| targets.push(rid));
    } else {
        run_access(ctx, &dp.access, &rows, residual, m, |rid, _| {
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
            let mut heap = Heap::new(&tdef.types(), tdef.avg_row_width());
            for i in 0..2000i64 {
                heap.insert(vec![
                    Value::Int(i),
                    Value::Int(i % 100),
                    Value::Int(i % 4),
                    Value::Float((i % 500) as f64),
                ]);
            }
            let stats = TableStats::build_full(&heap);
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

    /// Under GROUP BY, the count sink forms as many groups as the rows
    /// sink and as `Value`'s order tells apart, over a key column of every
    /// type: `Int` (with `i64::MAX`), `Float` (`0.0` beside `-0.0`),
    /// `Date`, `Bool`, `Str` (strings of one to seventeen bytes, with and
    /// without a trailing zero byte), and all NULL; each with NULLs,
    /// grouped alone and beside an `Int` column, over the heap's columns
    /// and over a covering index's leaves.
    #[test]
    fn count_sink_groups_mixed_keys_as_the_rows_sink_does() {
        let strs = [
            "a",
            "a\0",
            "abcdefgh",
            "abcdefghi",
            "abcdefghijklmnopq",
            "abcdefghijklmnopr",
        ];
        let strs = strs.map(Value::from);
        // Each pool, its column's type, and how many of its values fold
        // into another's group.
        let pools: Vec<(Vec<Value>, ValueType, usize)> = vec![
            (
                vec![
                    Value::Int(3),
                    Value::Int(-1),
                    Value::Int(0),
                    Value::Int(i64::MAX),
                ],
                ValueType::Int,
                0,
            ),
            (
                [3.0, 3.5, 0.0, -0.0, -7.25].map(Value::Float).to_vec(),
                ValueType::Float,
                1,
            ),
            (
                vec![Value::Date(1), Value::Date(-5), Value::Date(400)],
                ValueType::Date,
                0,
            ),
            (
                vec![Value::Bool(true), Value::Bool(false)],
                ValueType::Bool,
                0,
            ),
            (strs.to_vec(), ValueType::Str, 0),
            (vec![], ValueType::Int, 0),
        ];
        for (n, (mut pool, ty, folded)) in pools.into_iter().enumerate() {
            pool.push(Value::Null);
            let mut w = World::new();
            let mt = w
                .catalog
                .add_table(TableDef::new(
                    format!("mixed{n}"),
                    vec![ColumnDef::new("k", ty), ColumnDef::new("j", ValueType::Int)],
                ))
                .unwrap();
            let mut heap = Heap::new(&[ty, ValueType::Int], 32);
            for i in 0..600usize {
                let j = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int((i % 3) as i64)
                };
                heap.insert(vec![pool[(i * 11) % pool.len()].clone(), j]);
            }
            let want = |cols: &[usize]| -> usize {
                let keys = heap.live_ids().map(|rid| -> Vec<Value> {
                    cols.iter().map(|&c| heap.value(rid, c)).collect()
                });
                keys.collect::<std::collections::BTreeSet<_>>().len()
            };
            let (one, two) = (want(&[0]), want(&[0, 1]));
            assert_eq!(one, pool.len() - folded, "pool {n}: -0.0 = 0.0");
            w.stats.insert(mt, TableStats::build_full(&heap));
            w.heaps.insert(mt, heap);
            for indexed in [false, true] {
                if indexed {
                    // Leaf slots (j, k): the heap's columns swapped.
                    let def = IndexDef::new("ix_jk", mt, vec![ColumnId(1)], vec![ColumnId(0)]);
                    let id = w.catalog.add_index(def.clone()).unwrap();
                    let mut ix = SecondaryIndex::new(def, w.catalog.table(mt).unwrap());
                    ix.build(&w.heaps[&mt]);
                    w.indexes.insert(id, ix);
                }
                for (group_by, groups) in [
                    (vec![ColumnId(0)], one),
                    (vec![ColumnId(0), ColumnId(1)], two),
                ] {
                    let mut q = SelectQuery::new(mt);
                    q.group_by = group_by;
                    q.aggregates = vec![(AggFunc::Count, ColumnId(1))];
                    q.index_hint = indexed.then(|| "ix_jk".to_string());
                    let stmt = Statement::Select(q.clone());
                    let rows = w.run(&stmt, &[]);
                    let plan = optimize(&EnvView(&w), &stmt, &[]).plan;
                    let Plan::Select(sp) = &plan else {
                        panic!("select plans as select")
                    };
                    let covering = matches!(sp.access, Access::IndexScan { covering: true, .. });
                    assert_eq!(covering, indexed, "{:?}", sp.access);
                    let ctx = ExecContext {
                        catalog: &w.catalog,
                        heaps: &mut w.heaps,
                        indexes: &mut w.indexes,
                    };
                    let counted = execute_select(&ctx, &q, sp, &[], None).unwrap();
                    assert_eq!(
                        rows.rows.len(),
                        groups,
                        "pool {n}: rows sink, indexed {indexed}"
                    );
                    assert_eq!(counted.rows_returned, groups as u64, "pool {n}: count sink");
                    assert_eq!(counted, rows.metrics);
                }
            }
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
        let mut heap = Heap::new(&[ValueType::Int; 2], 24);
        for i in 0..100i64 {
            heap.insert(vec![Value::Int(i), Value::Int(i % 10)]);
        }
        let cstats = TableStats::build_full(&heap);
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
        let mut heap = Heap::new(&[ValueType::Int; 2], 24);
        for i in 0..20_000i64 {
            heap.insert(vec![Value::Int(i % 100), Value::Int(i % 10)]);
        }
        let cstats = TableStats::build_full(&heap);
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

    /// A deleted slot reads NULL in every column, and a sequential scan
    /// reads its first predicate's column without the live flag: an
    /// `= NULL` predicate must still find only the live rows holding NULL.
    #[test]
    fn seq_scan_for_null_skips_deleted_slots() {
        let mut w = World::new();
        let del = Statement::Delete {
            table: TableId(0),
            predicates: vec![Predicate::eq(ColumnId(1), 7i64)],
        };
        assert_eq!(w.run(&del, &[]).metrics.rows_returned, 20);
        for id in 0..3 {
            let ins = Statement::Insert {
                table: TableId(0),
                values: [
                    Value::Int(5_000 + id),
                    Value::Int(1),
                    Value::Null,
                    Value::Null,
                ]
                .map(Scalar::Lit)
                .to_vec(),
            };
            w.run(&ins, &[]);
        }
        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::eq(ColumnId(2), Value::Null)];
        q.projection = vec![ColumnId(0)];
        let r = w.run(&Statement::Select(q), &[]);
        assert_eq!(r.rows.len(), 3, "{:?}", r.rows);
        assert_eq!(r.metrics.rows_examined, 2_000 - 20 + 3);
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
