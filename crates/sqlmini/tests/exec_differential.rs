//! Differential test of statement execution (ROADMAP 5a, scoped to the
//! executor): `Database::query` — cost-based plans, the plan cache,
//! covering and non-covering index access, both join strategies, borrowed
//! row views — against a naive evaluator that has none of that: rows in a
//! `Vec`, nested loops, `Vec<Row>` in and out of every operator.
//!
//! Over random schemas, random indexes and random interleavings of the
//! workload generator's twelve statement shapes, both sides must agree on
//! every result, and after every write each secondary index must equal
//! one rebuilt from the heap. Both apply the write rule: a value is made
//! to fit its column's declared type (an `Int` in a `Float` column is
//! stored as its `f64`), and a write of any other misfit is refused whole
//! with `ExecError::TypeMismatch`, leaving every row and index entry as
//! it was.
//!
//! A twin database runs the same DDL and statements in lockstep through
//! `Database::execute`, which builds no result set. It must record what
//! `query` records: the same metrics, bit for bit, and the same plan for
//! every statement, and in the end the same Query Store and usage DMV.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlmini::clock::{SimClock, Timestamp};
use sqlmini::engine::{Database, DbConfig, EngineError};
use sqlmini::exec::ExecError;
use sqlmini::index::SecondaryIndex;
use sqlmini::plan::{Access, AggStrategy, JoinStrategy, Plan, SelectPlan};
use sqlmini::query::{
    AggFunc, CmpOp, JoinSpec, OrderKey, Predicate, QueryTemplate, Scalar, SelectQuery, Statement,
};
use sqlmini::querystore::Metric;
use sqlmini::schema::{ColumnDef, ColumnId, IndexDef, TableDef, TableId};
use sqlmini::types::{Row, Value, ValueType};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// The naive evaluator
// ---------------------------------------------------------------------

/// The reference's storage: each table's rows, in insertion order.
type Tables = BTreeMap<TableId, Vec<Row>>;

/// A relational expression. [`eval`] is the whole evaluator: every node
/// evaluates its input to a `Vec<Row>` and returns a `Vec<Row>`.
enum Rel<'q> {
    Scan(TableId),
    Filter(Box<Rel<'q>>, &'q [Predicate]),
    /// Nested loops; an output row is the outer row followed by the inner.
    Join {
        outer: Box<Rel<'q>>,
        inner: Box<Rel<'q>>,
        outer_col: usize,
        inner_col: usize,
    },
    /// One row per group — the key, then the aggregates — in key order.
    Aggregate {
        input: Box<Rel<'q>>,
        group_by: &'q [ColumnId],
        aggregates: &'q [(AggFunc, ColumnId)],
    },
    /// Stable sort on `(position, ascending)` keys.
    Sort(Box<Rel<'q>>, Vec<(usize, bool)>),
    Project(Box<Rel<'q>>, Vec<usize>),
}

fn eval(rel: &Rel, tables: &Tables, params: &[Value]) -> Vec<Row> {
    match rel {
        Rel::Scan(t) => tables[t].clone(),
        Rel::Filter(input, preds) => eval(input, tables, params)
            .into_iter()
            .filter(|r| preds.iter().all(|p| p.matches(r, params)))
            .collect(),
        Rel::Join {
            outer,
            inner,
            outer_col,
            inner_col,
        } => {
            let inner = eval(inner, tables, params);
            let mut out = Vec::new();
            for o in eval(outer, tables, params) {
                for i in inner.iter().filter(|i| i[*inner_col] == o[*outer_col]) {
                    out.push(o.iter().chain(i).cloned().collect());
                }
            }
            out
        }
        Rel::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
            for row in eval(input, tables, params) {
                let key: Vec<Value> = group_by.iter().map(|c| row[c.0 as usize].clone()).collect();
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(row),
                    None => groups.push((key, vec![row])),
                }
            }
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            groups
                .into_iter()
                .map(|(mut key, members)| {
                    key.extend(
                        aggregates
                            .iter()
                            .map(|(f, c)| aggregate(*f, members.iter().map(|r| &r[c.0 as usize]))),
                    );
                    key
                })
                .collect()
        }
        Rel::Sort(input, keys) => {
            let mut rows = eval(input, tables, params);
            rows.sort_by(|a, b| {
                keys.iter()
                    .map(|&(i, asc)| {
                        let ord = a[i].cmp(&b[i]);
                        if asc {
                            ord
                        } else {
                            ord.reverse()
                        }
                    })
                    .find(|ord| ord.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            rows
        }
        Rel::Project(input, cols) => eval(input, tables, params)
            .into_iter()
            .map(|r| cols.iter().map(|&i| r[i].clone()).collect())
            .collect(),
    }
}

/// SQL aggregates over one group's values: NULLs are skipped.
fn aggregate<'v>(f: AggFunc, values: impl Iterator<Item = &'v Value>) -> Value {
    let vals: Vec<&Value> = values.filter(|v| !v.is_null()).collect();
    let sum: f64 = vals.iter().map(|v| v.as_f64()).sum();
    match f {
        AggFunc::Count => Value::Int(vals.len() as i64),
        AggFunc::Sum => Value::Float(sum),
        AggFunc::Avg if vals.is_empty() => Value::Null,
        AggFunc::Avg => Value::Float(sum / vals.len() as f64),
        AggFunc::Min => vals.into_iter().min().cloned().unwrap_or(Value::Null),
        AggFunc::Max => vals.into_iter().max().cloned().unwrap_or(Value::Null),
    }
}

/// The reference plan of a SELECT, `LIMIT` excluded (the comparison deals
/// with it): scan and filter each side, join, then either aggregate or
/// sort and project. `width` is the primary table's column count.
fn reference_plan(q: &SelectQuery, width: usize) -> Rel<'_> {
    let mut rel = Rel::Filter(Box::new(Rel::Scan(q.table)), &q.predicates);
    if let Some(j) = &q.join {
        rel = Rel::Join {
            outer: Box::new(rel),
            inner: Box::new(Rel::Filter(Box::new(Rel::Scan(j.table)), &j.predicates)),
            outer_col: j.outer_col.0 as usize,
            inner_col: j.inner_col.0 as usize,
        };
    }
    if !q.aggregates.is_empty() || !q.group_by.is_empty() {
        rel = Rel::Aggregate {
            input: Box::new(rel),
            group_by: &q.group_by,
            aggregates: &q.aggregates,
        };
        return match sort_positions(q) {
            Some(keys) => Rel::Sort(Box::new(rel), keys),
            None => rel,
        };
    }
    if !q.order_by.is_empty() {
        let keys = q.order_by.iter().map(|o| (o.column.0 as usize, o.asc));
        rel = Rel::Sort(Box::new(rel), keys.collect());
    }
    let mut cols: Vec<usize> = q.projection.iter().map(|c| c.0 as usize).collect();
    if let Some(j) = &q.join {
        cols.extend(j.projection.iter().map(|c| width + c.0 as usize));
    }
    Rel::Project(Box::new(rel), cols)
}

/// Where the ORDER BY columns sit in an *output* row, with direction;
/// `None` without ORDER BY. (Generated queries always project them.)
fn sort_positions(q: &SelectQuery) -> Option<Vec<(usize, bool)>> {
    if q.order_by.is_empty() {
        return None;
    }
    let output = if q.group_by.is_empty() {
        &q.projection
    } else {
        &q.group_by
    };
    let pos = |o: &OrderKey| output.iter().position(|c| *c == o.column);
    Some(
        q.order_by
            .iter()
            .map(|o| (pos(o).expect("ORDER BY column is in the output"), o.asc))
            .collect(),
    )
}

/// Apply a write to the reference, whose table has columns of `types`;
/// returns the rows affected, or `None` where the write rule refuses the
/// statement (and nothing is written).
fn apply_write(
    tables: &mut Tables,
    types: &[ValueType],
    stmt: &Statement,
    params: &[Value],
) -> Option<u64> {
    let fit = |c: usize, s: &Scalar| types[c].fit(s.resolve(params).clone()).ok();
    let hit = |preds: &[Predicate], r: &Row| preds.iter().all(|p| p.matches(r, params));
    let row = |values: &[Scalar]| -> Option<Row> {
        values.iter().enumerate().map(|(c, s)| fit(c, s)).collect()
    };
    Some(match stmt {
        Statement::Select(_) => unreachable!("not a write"),
        Statement::Insert { table, values } => {
            tables.get_mut(table).unwrap().push(row(values)?);
            1
        }
        Statement::BulkInsert {
            table,
            values,
            rows,
        } => {
            let row = row(values)?;
            let t = tables.get_mut(table).unwrap();
            t.extend((0..*rows).map(|_| row.clone()));
            u64::from(*rows)
        }
        Statement::Update {
            table,
            predicates,
            set,
        } => {
            let set = (set.iter())
                .map(|(c, s)| Some((c.0 as usize, fit(c.0 as usize, s)?)))
                .collect::<Option<Vec<_>>>()?;
            let mut n = 0;
            for row in tables.get_mut(table).unwrap() {
                if hit(predicates, row) {
                    n += 1;
                    for (c, v) in &set {
                        row[*c] = v.clone();
                    }
                }
            }
            n
        }
        Statement::Delete { table, predicates } => {
            let t = tables.get_mut(table).unwrap();
            let before = t.len();
            t.retain(|r| !hit(predicates, r));
            (before - t.len()) as u64
        }
    })
}

// ---------------------------------------------------------------------
// Random schemas, data, indexes and statements
// ---------------------------------------------------------------------

/// What a column holds. Domains are small, so predicates hit and groups
/// merge; `Mixed` writes `Int(k)`, `Float(k.0)` and `Float(k.5)` to a
/// float column, which stores the ints as their `f64`s (so a stored
/// `3.0` must still join an `Int` pk of 3), `Real` only floats, `-0.0`
/// beside `0.0` among them. Every float is a multiple of 0.5, so sums are
/// exact in any order of addition.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Pk,
    Small(i64),
    Mixed,
    Real,
    Text,
    Day,
    Flag,
}

impl Kind {
    fn value_type(self) -> ValueType {
        match self {
            Kind::Pk | Kind::Small(_) => ValueType::Int,
            Kind::Mixed | Kind::Real => ValueType::Float,
            Kind::Text => ValueType::Str,
            Kind::Day => ValueType::Date,
            Kind::Flag => ValueType::Bool,
        }
    }

    /// Two kinds of one family hold values that can be equal.
    fn family(self) -> ValueType {
        match self {
            Kind::Mixed | Kind::Real => ValueType::Int,
            k => k.value_type(),
        }
    }

    /// A non-NULL value of the column's domain.
    fn param(self, rng: &mut StdRng, rows: i64) -> Value {
        match self {
            Kind::Pk => Value::Int(rng.random_range(0..rows.max(1))),
            Kind::Small(card) => Value::Int(rng.random_range(0..card)),
            Kind::Mixed => {
                let k = rng.random_range(0..6i64);
                match rng.random_range(0..3) {
                    0 => Value::Int(k),
                    1 => Value::Float(k as f64),
                    _ => Value::Float(k as f64 + 0.5),
                }
            }
            Kind::Real => {
                let x = rng.random_range(-3..4i64) as f64 * 0.5;
                Value::Float(if x == 0.0 && rng.random() { -0.0 } else { x })
            }
            Kind::Text => Value::Str(format!("s{}", rng.random_range(0..5)).into()),
            Kind::Day => Value::Date(rng.random_range(0..10)),
            Kind::Flag => Value::Bool(rng.random()),
        }
    }

    /// A value of another type than the column's (`3.0` in an int
    /// column, a number among strings, a string among dates), or for a
    /// float column an `Int` or a NaN: the write rule stores the `Int` as
    /// its `f64` and refuses every other.
    fn misfit(self, rng: &mut StdRng) -> Value {
        let k = rng.random_range(0..6i64);
        match self {
            Kind::Pk | Kind::Small(_) => Value::Float(k as f64),
            Kind::Mixed | Kind::Real if rng.random() => Value::Float(f64::NAN),
            Kind::Mixed | Kind::Real | Kind::Text | Kind::Flag => Value::Int(k),
            Kind::Day => Value::Str(format!("d{k}").into()),
        }
    }

    /// A stored value: one in ten is NULL.
    fn stored(self, rng: &mut StdRng, rows: i64) -> Value {
        if rng.random_range(0..10) == 0 {
            Value::Null
        } else {
            self.param(rng, rows)
        }
    }

    fn is_numeric(self) -> bool {
        matches!(self, Kind::Small(_) | Kind::Mixed | Kind::Real | Kind::Day)
    }
}

struct Table {
    id: TableId,
    /// `kinds[0]` is `Kind::Pk`.
    kinds: Vec<Kind>,
    next_pk: i64,
}

impl Table {
    /// Each column's declared type.
    fn types(&self) -> Vec<ValueType> {
        self.kinds.iter().map(|k| k.value_type()).collect()
    }

    fn col(&self, rng: &mut StdRng, ok: impl Fn(Kind) -> bool) -> Option<ColumnId> {
        let fit: Vec<usize> = (1..self.kinds.len())
            .filter(|&i| ok(self.kinds[i]))
            .collect();
        (!fit.is_empty()).then(|| ColumnId(fit[rng.random_range(0..fit.len())] as u32))
    }

    fn any_col(&self, rng: &mut StdRng) -> ColumnId {
        ColumnId(rng.random_range(1..self.kinds.len()) as u32)
    }

    fn kind(&self, c: ColumnId) -> Kind {
        self.kinds[c.0 as usize]
    }

    /// The pk, one or two more columns, and every column in `must`.
    fn projection(&self, rng: &mut StdRng, must: &[ColumnId]) -> Vec<ColumnId> {
        let mut cols = vec![ColumnId(0)];
        cols.extend_from_slice(must);
        for _ in 0..rng.random_range(1..3) {
            cols.push(self.any_col(rng));
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn new_row(&mut self, rng: &mut StdRng) -> Row {
        let pk = self.next_pk;
        self.next_pk += 1;
        let mut row = vec![Value::Int(pk)];
        row.extend(self.kinds[1..].iter().map(|k| k.stored(rng, pk)));
        row
    }

    /// A random index: one or two key columns (led by `lead`, if given),
    /// and from none to all of the other columns included — some indexes
    /// cover whole queries, even whole rows, some nothing beyond the key.
    fn index_def(&self, rng: &mut StdRng, name: String, lead: Option<ColumnId>) -> IndexDef {
        let n = self.kinds.len();
        let mut cols: Vec<ColumnId> = (0..n as u32).map(ColumnId).collect();
        for i in (1..n).rev() {
            cols.swap(i, rng.random_range(0..=i));
        }
        if let Some(at) = cols.iter().position(|c| Some(*c) == lead) {
            cols.swap(0, at);
        }
        let keys = rng.random_range(1..=2usize);
        let included = rng.random_range(0..=n - keys);
        let (key, rest) = cols.split_at(keys);
        IndexDef::new(name, self.id, key.to_vec(), rest[..included].to_vec())
    }
}

struct World {
    /// Driven by `query`, whose rows are checked against `reference`.
    db: Database,
    /// Driven by `execute` in lockstep with `db`: same DDL, same statements.
    twin: Database,
    reference: Tables,
    /// `tables[0]` is the join's outer side, `tables[1]` the inner.
    tables: Vec<Table>,
    n_indexes: usize,
    /// Statements planned as: sequential scan, non-covering index access,
    /// covering index access, hash join, index nested-loop join. Read by
    /// the coverage test.
    paths: [u32; 5],
    /// SELECTs executed that were: scalar aggregates, scalar aggregates
    /// that returned no row, two-column GROUP BYs, joins off the inner pk
    /// on typed words (two columns of one type other than `Str`), and on
    /// values (any other pair). Read by the coverage test.
    shapes: [u32; 5],
    /// Writes the rule refused, and writes that stored an `Int` in a
    /// float column as its `f64`. Read by the coverage test.
    misfits: [u32; 2],
    /// Draws the misfits put into INSERTs: a stream of its own, so that
    /// they do not move the statement mix the coverage test counts.
    misfit_rng: StdRng,
    /// SELECTs whose outer access is a covering index, by what its
    /// leaves' runs are asked (see [`Covering`]). Read by the coverage
    /// test.
    covering: [u32; Covering::N],
}

/// What a covering access's typed leaves are asked, as counted in
/// [`World::covering`]: GROUP BY in index order (stream) and not (hash),
/// on one column or on several; a hash join keyed by words or by value;
/// and a residual filter on a leaf column of each type.
struct Covering;

impl Covering {
    const STREAM_ONE: usize = 0;
    const STREAM_SEVERAL: usize = 1;
    const HASH_ONE: usize = 2;
    const HASH_SEVERAL: usize = 3;
    const JOIN_BY_WORD: usize = 4;
    const JOIN_BY_VALUE: usize = 5;
    /// Then one per type: `Int`, `Float`, `Date`, `Bool`, `Str`.
    const FILTER: usize = 6;
    const N: usize = 11;
}

fn build_world(seed: u64) -> (World, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = DbConfig {
        seed,
        ..DbConfig::default()
    };
    let mut world = World {
        db: Database::new("diff", cfg.clone(), SimClock::new()),
        twin: Database::new("diff", cfg, SimClock::new()),
        reference: Tables::new(),
        tables: Vec::new(),
        n_indexes: 0,
        paths: [0; 5],
        shapes: [0; 5],
        misfits: [0; 2],
        misfit_rng: StdRng::seed_from_u64(!seed),
        covering: [0; Covering::N],
    };
    // Mostly small; a big inner side now and then, so that seeking it
    // once per outer row can beat hashing all of it.
    let inner_rows = if rng.random_range(0..3) == 0 {
        rng.random_range(1500..3000i64)
    } else {
        rng.random_range(20..120i64)
    };
    for (t, rows) in [(0, rng.random_range(80..400i64)), (1, inner_rows)] {
        let mut kinds = vec![Kind::Pk];
        if t == 0 {
            // The foreign key: `Small` over the inner pks, or `Mixed`,
            // whose `Float(3.0)` must join `Int(3)`.
            kinds.push(if rng.random_range(0..3) == 0 {
                Kind::Mixed
            } else {
                Kind::Small(inner_rows)
            });
        }
        for _ in 0..rng.random_range(2..5) {
            kinds.push(match rng.random_range(0..7) {
                0 => Kind::Small(rng.random_range(2..40)),
                1 => Kind::Small(3),
                2 => Kind::Mixed,
                3 => Kind::Real,
                4 => Kind::Text,
                5 => Kind::Flag,
                _ => Kind::Day,
            });
        }
        let columns = kinds
            .iter()
            .enumerate()
            .map(|(i, k)| ColumnDef::new(format!("c{i}"), k.value_type()).nullable())
            .collect();
        let def = TableDef::new(format!("t{t}"), columns).with_primary_key(ColumnId(0));
        let id = world.db.create_table(def.clone()).expect("fresh table");
        assert_eq!(world.twin.create_table(def).expect("fresh table"), id);
        let mut table = Table {
            id,
            kinds,
            next_pk: 0,
        };
        let data: Vec<Row> = (0..rows).map(|_| table.new_row(&mut rng)).collect();
        for db in [&mut world.db, &mut world.twin] {
            db.load_rows(id, data.clone());
            db.rebuild_stats(id);
        }
        // The reference holds what a load stores: `Mixed`'s ints as floats.
        let types = table.types();
        let fit = |row: Row| {
            (row.into_iter().zip(&types))
                .map(|(v, ty)| ty.fit(v).expect("generated values fit"))
                .collect()
        };
        world
            .reference
            .insert(id, data.into_iter().map(fit).collect());
        world.tables.push(table);
    }
    for _ in 0..rng.random_range(1..6) {
        world.create_index(&mut rng, None);
    }
    if rng.random_range(0..3) > 0 {
        // Led by the inner pk: makes the index nested-loop join possible.
        world.create_index(&mut rng, Some((1, ColumnId(0))));
    }
    (world, rng)
}

impl World {
    /// Create a random index on a random table, or on table `lead.0` led
    /// by column `lead.1`.
    fn create_index(&mut self, rng: &mut StdRng, lead: Option<(usize, ColumnId)>) {
        let side = lead.map_or_else(|| rng.random_range(0..2usize), |(side, _)| side);
        let name = format!("ix{}", self.n_indexes);
        let def = self.tables[side].index_def(rng, name, lead.map(|(_, c)| c));
        self.n_indexes += 1;
        let table = def.table;
        self.db.create_index(def.clone()).expect("index builds");
        self.twin.create_index(def).expect("index builds");
        storage_matches(&self.db, &self.reference, table)
            .unwrap_or_else(|e| panic!("after CREATE INDEX ix{}: {e:?}", self.n_indexes - 1));
    }

    /// An index on a random table keyed by one or two of its columns
    /// (not the pk) and including every other: it covers any query on the
    /// table, and its key order serves GROUP BY on its leading columns.
    fn create_covering_index(&mut self, rng: &mut StdRng) {
        let side = rng.random_range(0..2usize);
        let t = &self.tables[side];
        let mut keys = vec![t.any_col(rng)];
        if rng.random() {
            keys.push(t.any_col(rng));
            keys.dedup();
        }
        self.create_index_keyed(side, keys);
    }

    /// An index on `tables[side]` keyed by `keys` and including every
    /// other column; returns its name.
    fn create_index_keyed(&mut self, side: usize, keys: Vec<ColumnId>) -> String {
        let t = &self.tables[side];
        let n = t.kinds.len() as u32;
        let included = (0..n).map(ColumnId).filter(|c| !keys.contains(c)).collect();
        let name = format!("ix{}", self.n_indexes);
        let def = IndexDef::new(name.clone(), t.id, keys, included);
        self.n_indexes += 1;
        self.db.create_index(def.clone()).expect("index builds");
        self.twin.create_index(def).expect("index builds");
        let table = self.tables[side].id;
        storage_matches(&self.db, &self.reference, table)
            .unwrap_or_else(|e| panic!("after CREATE INDEX {name}: {e:?}"));
        name
    }

    /// What the random mix reaches only now and then, on purpose: a
    /// GROUP BY of two columns streamed from a covering index keyed by
    /// them (its leaves' runs grouped in key order, several columns at
    /// once), and an INSERT the write rule refuses (a float in the int
    /// pk).
    fn on_purpose(&mut self, rng: &mut StdRng) -> Result<(), TestCaseError> {
        let side = rng.random_range(0..2usize);
        let (g, h) = (
            self.tables[side].any_col(rng),
            self.tables[side].any_col(rng),
        );
        let h = if h == g { ColumnId(0) } else { h };
        let mut q = SelectQuery::new(self.tables[side].id);
        q.index_hint = Some(self.create_index_keyed(side, vec![g, h]));
        q.group_by = vec![g, h];
        q.aggregates = vec![(AggFunc::Count, ColumnId(0))];
        self.step(&Statement::Select(q), &[])?;
        let t = &mut self.tables[rng.random_range(0..2usize)];
        let values = (0..t.kinds.len() as u16).map(Scalar::Param).collect();
        let mut params = t.new_row(rng);
        params[0] = Kind::Pk.misfit(rng);
        let table = t.id;
        self.step(&Statement::Insert { table, values }, &params)
    }

    /// One random statement of the given workload shape (the twelve
    /// `TemplateKind`s, in their declaration order), with its parameters.
    fn statement(&mut self, rng: &mut StdRng, shape: u32) -> (Statement, Vec<Value>) {
        let side = rng.random_range(0..2usize);
        let t = &self.tables[side];
        let rows = t.next_pk;
        let mut q = SelectQuery::new(t.id);
        let mut params: Vec<Value> = Vec::new();
        match shape {
            // PointLookup
            0 => {
                q.predicates = vec![Predicate::param(ColumnId(0), CmpOp::Eq, 0)];
                q.projection = t.projection(rng, &[]);
                params.push(Kind::Pk.param(rng, rows));
            }
            // SecondaryFilter
            1 => {
                let c = t.any_col(rng);
                q.predicates = vec![Predicate::param(c, CmpOp::Eq, 0)];
                q.projection = t.projection(rng, &[]);
                params.push(t.kind(c).param(rng, rows));
            }
            // MultiPredicate
            2 => {
                let (a, b) = (t.any_col(rng), t.any_col(rng));
                q.predicates = vec![
                    Predicate::param(a, CmpOp::Eq, 0),
                    Predicate::param(b, CmpOp::Eq, 1),
                ];
                q.projection = t.projection(rng, &[]);
                params.push(t.kind(a).param(rng, rows));
                params.push(t.kind(b).param(rng, rows));
            }
            // RangeScan
            3 => {
                let c = t.col(rng, Kind::is_numeric).unwrap_or(ColumnId(0));
                q.predicates = vec![
                    Predicate::param(c, CmpOp::Ge, 0),
                    Predicate::param(c, CmpOp::Lt, 1),
                ];
                q.projection = t.projection(rng, &[]);
                let lo = t.kind(c).param(rng, rows);
                let width = rng.random_range(1..4) as f64;
                params.push(lo.clone());
                params.push(match lo {
                    Value::Date(d) => Value::Date(d + width as i32),
                    Value::Int(i) => Value::Int(i + width as i64),
                    other => Value::Float(other.as_f64() + width),
                });
            }
            // TopN
            4 => {
                let f = t.any_col(rng);
                let o = t.col(rng, Kind::is_numeric).unwrap_or(ColumnId(0));
                q.predicates = vec![Predicate::param(f, CmpOp::Eq, 0)];
                q.order_by = vec![OrderKey {
                    column: o,
                    asc: rng.random(),
                }];
                q.projection = t.projection(rng, &[o]);
                q.limit = Some(rng.random_range(1..12));
                params.push(t.kind(f).param(rng, rows));
            }
            // GroupAgg and Report: the report orders and limits its groups.
            // Beyond the workload's one group column: now and then two,
            // or none (a scalar aggregate), sometimes over a filter that
            // matches no row, which yields no row rather than one.
            5 | 7 => {
                let g = t.any_col(rng);
                let funcs = [
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Min,
                    AggFunc::Max,
                    AggFunc::Avg,
                ];
                q.group_by = match rng.random_range(0..5) {
                    0 => vec![],
                    1 => match t.any_col(rng) {
                        h if h == g => vec![g, ColumnId(0)],
                        h => vec![g, h],
                    },
                    _ => vec![g],
                };
                q.aggregates = (0..rng.random_range(1..4))
                    .map(|_| (funcs[rng.random_range(0..5usize)], t.any_col(rng)))
                    .collect();
                if q.group_by.is_empty() && rng.random() {
                    // Every pk is at least zero.
                    q.predicates = vec![Predicate::param(ColumnId(0), CmpOp::Lt, 0)];
                    params.push(Value::Int(0));
                } else if rng.random_range(0..3) == 0 {
                    let c = t.any_col(rng);
                    q.predicates = vec![Predicate::param(c, CmpOp::Ne, 0)];
                    params.push(t.kind(c).param(rng, rows));
                }
                if shape == 7 && !q.group_by.is_empty() {
                    q.order_by = vec![OrderKey {
                        column: g,
                        asc: rng.random(),
                    }];
                    q.limit = rng.random::<bool>().then(|| rng.random_range(1..6));
                }
            }
            // JoinQuery: from the outer table's foreign key to the inner
            // pk or, half the time, between two other columns of one
            // family; such a key is far from unique, so then over the
            // first few outer rows only.
            6 => {
                let (outer, inner) = (&self.tables[0], &self.tables[1]);
                q = SelectQuery::new(outer.id);
                q.projection = outer.projection(rng, &[]);
                let o = outer.any_col(rng);
                let family = outer.kind(o).family();
                let keys = match inner.col(rng, |k| k.family() == family) {
                    Some(i) if rng.random() => (o, i),
                    _ => (ColumnId(1), ColumnId(0)),
                };
                if keys.1 != ColumnId(0) {
                    q.predicates = vec![Predicate::param(ColumnId(0), CmpOp::Lt, 0)];
                    params.push(Value::Int(rng.random_range(1..20)));
                } else if rng.random() {
                    let c = if rng.random() {
                        ColumnId(0)
                    } else {
                        outer.any_col(rng)
                    };
                    q.predicates = vec![Predicate::param(c, CmpOp::Eq, 0)];
                    params.push(outer.kind(c).param(rng, outer.next_pk));
                }
                let mut predicates = Vec::new();
                if rng.random() {
                    let c = inner.any_col(rng);
                    predicates.push(Predicate::param(c, CmpOp::Eq, params.len() as u16));
                    params.push(inner.kind(c).param(rng, inner.next_pk));
                }
                q.join = Some(JoinSpec {
                    table: inner.id,
                    outer_col: keys.0,
                    inner_col: keys.1,
                    predicates,
                    projection: inner.projection(rng, &[]),
                });
                if rng.random_range(0..4) == 0 {
                    q.limit = Some(rng.random_range(1..30));
                }
            }
            // InsertRow and BulkLoad; one in twelve with a misfit.
            8 | 11 => {
                let t = &mut self.tables[side];
                let values = (0..t.kinds.len() as u16).map(Scalar::Param).collect();
                let mut params = t.new_row(rng);
                let odd = &mut self.misfit_rng;
                if odd.random_range(0..12) == 0 {
                    let c = t.any_col(odd);
                    params[c.0 as usize] = t.kind(c).misfit(odd);
                }
                let table = t.id;
                let stmt = if shape == 8 {
                    Statement::Insert { table, values }
                } else {
                    let rows = rng.random_range(2..9);
                    Statement::BulkInsert {
                        table,
                        values,
                        rows,
                    }
                };
                return (stmt, params);
            }
            // UpdateRow and DeleteRow: by pk as the workload does, or by
            // any column — which, indexed, makes the statement's own
            // access path an index it then modifies.
            9 | 10 => {
                let c = if rng.random() {
                    ColumnId(0)
                } else {
                    t.any_col(rng)
                };
                let predicates = vec![Predicate::param(c, CmpOp::Eq, 0)];
                params.push(t.kind(c).param(rng, rows));
                let table = t.id;
                if shape == 10 {
                    return (Statement::Delete { table, predicates }, params);
                }
                let target = if rng.random() { c } else { t.any_col(rng) };
                let target = if target == ColumnId(0) {
                    t.any_col(rng)
                } else {
                    target
                };
                params.push(if rng.random_range(0..12) == 0 {
                    t.kind(target).misfit(rng)
                } else {
                    t.kind(target).stored(rng, rows)
                });
                let set = vec![(target, Scalar::Param(1))];
                return (
                    Statement::Update {
                        table,
                        predicates,
                        set,
                    },
                    params,
                );
            }
            _ => unreachable!("twelve shapes"),
        }
        // Now and then force an index, so that paths the cost model would
        // not pick for tables this small run too: any index, or for a
        // GROUP BY or a join one that covers the query, so that its
        // leaves' runs are grouped, hashed and filtered in place.
        let hint = match rng.random_range(0..6) {
            0 | 1 => Some(false),
            2 if (5..=7).contains(&shape) => Some(true),
            _ => None,
        };
        if let Some(covering) = hint {
            let needed = q.needed_columns();
            let on_table: Vec<String> = (self.db.catalog().indexes_on(q.table))
                .filter(|(_, d)| !covering || d.covers(&needed))
                .map(|(_, d)| d.name.clone())
                .collect();
            if !on_table.is_empty() {
                q.index_hint = Some(on_table[rng.random_range(0..on_table.len())].clone());
            }
        }
        (Statement::Select(q), params)
    }

    /// Run one statement on both sides and compare; run it on the twin
    /// and compare what both databases recorded.
    fn step(&mut self, stmt: &Statement, params: &[Value]) -> Result<(), TestCaseError> {
        let tpl = QueryTemplate::new(stmt.clone(), params.len() as u16);
        self.note_path(&tpl, params);
        // A write's outcome under the write rule, from the reference.
        let affected = match stmt {
            Statement::Select(_) => None,
            _ => {
                let table = self.tables.iter().find(|t| t.id == stmt.table());
                let types = table.expect("a generated table").types();
                let converts = |(c, s): (usize, &Scalar)| {
                    types[c] == ValueType::Float && matches!(s.resolve(params), Value::Int(_))
                };
                let written: Vec<(usize, &Scalar)> = match stmt {
                    Statement::Insert { values, .. } | Statement::BulkInsert { values, .. } => {
                        values.iter().enumerate().collect()
                    }
                    Statement::Update { set, .. } => {
                        set.iter().map(|(c, s)| (c.0 as usize, s)).collect()
                    }
                    _ => Vec::new(),
                };
                let n = apply_write(&mut self.reference, &types, stmt, params);
                self.misfits[0] += u32::from(n.is_none());
                self.misfits[1] += u32::from(n.is_some() && written.into_iter().any(converts));
                Some(n)
            }
        };
        if let Some(None) = affected {
            // Refused on both sides before anything is charged or
            // written: no CPU, no row, no index entry.
            let cpu = |db: &Database| db.total_cpu_us.to_bits();
            let before = (cpu(&self.db), cpu(&self.twin));
            let outcomes = [
                self.db.query(&tpl, params).map(drop),
                self.twin.execute(&tpl, params).map(drop),
            ];
            for r in outcomes {
                prop_assert!(
                    matches!(r, Err(EngineError::Exec(ExecError::TypeMismatch { .. }))),
                    "{r:?}: {stmt:?} {params:?}"
                );
            }
            prop_assert!(
                before == (cpu(&self.db), cpu(&self.twin)),
                "{stmt:?} charged"
            );
            return storage_matches(&self.db, &self.reference, stmt.table());
        }
        let (out, got) = self
            .db
            .query(&tpl, params)
            .map_err(|e| TestCaseError::fail(format!("{stmt:?}: {e:?}")))?;
        let counted = self
            .twin
            .execute(&tpl, params)
            .map_err(|e| TestCaseError::fail(format!("execute {stmt:?}: {e:?}")))?;
        prop_assert!(
            counted.metrics == out.metrics
                && counted.metrics.cpu_us.to_bits() == out.metrics.cpu_us.to_bits()
                && counted.duration_us.to_bits() == out.duration_us.to_bits(),
            "execute {:?} {}, query {:?} {}: {stmt:?} {params:?}",
            counted.metrics,
            counted.duration_us,
            out.metrics,
            out.duration_us
        );
        prop_assert_eq!(counted.plan_id, out.plan_id);
        let Statement::Select(q) = stmt else {
            let affected = affected.flatten().expect("an accepted write");
            prop_assert!(
                out.metrics.rows_returned == affected,
                "{} rows affected, reference {affected}: {stmt:?} {params:?}",
                out.metrics.rows_returned
            );
            prop_assert!(got.is_empty());
            return storage_matches(&self.db, &self.reference, stmt.table());
        };
        if q.group_by.is_empty() && !q.aggregates.is_empty() {
            self.shapes[0] += 1;
            self.shapes[1] += u32::from(got.is_empty());
        }
        self.shapes[2] += u32::from(q.group_by.len() == 2);
        if let Some(j) = q.join.as_ref().filter(|j| j.inner_col != ColumnId(0)) {
            let (o, i) = (
                self.tables[0].kind(j.outer_col),
                self.tables[1].kind(j.inner_col),
            );
            let ty = o.value_type();
            let by_word = ty == i.value_type() && ty != ValueType::Str;
            self.shapes[if by_word { 3 } else { 4 }] += 1;
        }
        let width = self.reference[&q.table].first().map_or(0, Vec::len);
        let want = eval(&reference_plan(q, width), &self.reference, params);
        let n = q.limit.map_or(want.len(), |lim| lim.min(want.len()));
        prop_assert_eq!(out.metrics.rows_returned as usize, got.len());
        prop_assert!(
            got.len() == n,
            "{} rows, reference {n}: {q:?} {params:?}",
            got.len()
        );
        if let Some(keys) = sort_positions(q) {
            let key_of =
                |r: &Row| -> Vec<Value> { keys.iter().map(|&(i, _)| r[i].clone()).collect() };
            let got_keys: Vec<Vec<Value>> = got.iter().map(key_of).collect();
            let want_keys: Vec<Vec<Value>> = want[..n].iter().map(key_of).collect();
            prop_assert!(
                got_keys == want_keys,
                "sort keys {got_keys:?}, reference {want_keys:?}: {q:?} {params:?}"
            );
        }
        prop_assert!(
            is_sub_multiset(got.clone(), want.clone()),
            "{:?} {:?}\n got {:?}\nwant {:?}",
            q,
            params,
            got,
            want
        );
        Ok(())
    }

    /// Count the access path and join strategy the optimizer picks for
    /// the statement. (The executed plan comes from the plan cache and
    /// may be pinned to an older binding; for counting coverage the
    /// what-if plan is close enough.)
    fn note_path(&mut self, tpl: &QueryTemplate, params: &[Value]) {
        let (plan, _) = self.db.what_if().cost(tpl, params);
        if let (Plan::Select(p), Statement::Select(q)) = (&plan, &tpl.statement) {
            self.note_covering(q, p);
        }
        let access = match &plan {
            Plan::Select(p) => {
                match p.join.as_ref().map(|j| &j.strategy) {
                    Some(JoinStrategy::Hash { .. }) => self.paths[3] += 1,
                    Some(JoinStrategy::IndexNestedLoop { .. }) => self.paths[4] += 1,
                    None => {}
                }
                &p.access
            }
            Plan::Update(p) | Plan::Delete(p) => &p.access,
            Plan::Insert { .. } => return,
        };
        self.paths[match access {
            Access::SeqScan => 0,
            Access::IndexSeek { covering, .. } | Access::IndexScan { covering, .. } => {
                1 + usize::from(*covering)
            }
        }] += 1;
    }
}

impl World {
    /// Count what a covering access of `p` asks of the leaves' typed runs
    /// ([`Covering`]), from the plan and the columns' types.
    fn note_covering(&mut self, q: &SelectQuery, p: &SelectPlan) {
        let (Access::IndexScan {
            index,
            covering: true,
        }
        | Access::IndexSeek {
            index,
            covering: true,
            ..
        }) = &p.access
        else {
            return;
        };
        if self.index_named(index.name()).is_none() {
            return;
        }
        let t = &self.tables[usize::from(q.table != self.tables[0].id)];
        let mut counts = [0u32; Covering::N];
        if !q.group_by.is_empty() {
            let one = q.group_by.len() == 1;
            counts[match (p.agg, one) {
                (AggStrategy::Stream, true) => Covering::STREAM_ONE,
                (AggStrategy::Stream, false) => Covering::STREAM_SEVERAL,
                (_, true) => Covering::HASH_ONE,
                (_, false) => Covering::HASH_SEVERAL,
            }] += 1;
        }
        if let (Some(j), Some(JoinStrategy::Hash { .. })) =
            (&q.join, p.join.as_ref().map(|j| &j.strategy))
        {
            let ty = t.kind(j.outer_col).value_type();
            let by_word =
                ty == self.tables[1].kind(j.inner_col).value_type() && ty != ValueType::Str;
            counts[if by_word {
                Covering::JOIN_BY_WORD
            } else {
                Covering::JOIN_BY_VALUE
            }] += 1;
        }
        for &i in &p.residual {
            let c = q.predicates[i].column;
            let ty = match t.kind(c).value_type() {
                ValueType::Int => 0,
                ValueType::Float => 1,
                ValueType::Date => 2,
                ValueType::Bool => 3,
                ValueType::Str => 4,
            };
            counts[Covering::FILTER + ty] += 1;
        }
        for (total, n) in self.covering.iter_mut().zip(counts) {
            *total += n;
        }
    }

    fn index_named(&self, name: &str) -> Option<&SecondaryIndex> {
        let catalog = self.db.catalog();
        let (id, _) = catalog.indexes().find(|(_, d)| d.name == name)?;
        self.db.secondary_index(id)
    }
}

/// After a write to `table` or index DDL on it: the heap holds the
/// reference's rows, and every index on it is a well-formed tree holding
/// what a rebuild from the heap gives. The live index got there by
/// `insert_row`/`delete_from`/`update_set` and the rebuild by the bulk
/// build, so this is also a differential between those two paths.
fn storage_matches(db: &Database, reference: &Tables, table: TableId) -> Result<(), TestCaseError> {
    let heap = db.heap(table).expect("table has a heap");
    let rows: Vec<Row> = heap
        .live_ids()
        .map(|rid| heap.row(rid).expect("a listed row is live"))
        .collect();
    prop_assert_eq!(rows.len(), reference[&table].len());
    prop_assert!(is_sub_multiset(rows, reference[&table].clone()));
    let tdef = db.catalog().table(table).expect("table is in the catalog");
    for (id, def) in db.catalog().indexes_on(table) {
        let live = db.secondary_index(id).expect("index is materialized");
        let mut rebuilt = SecondaryIndex::new(def.clone(), tdef);
        rebuilt.build(heap);
        for (ix, how) in [(live, "live"), (&rebuilt, "rebuilt")] {
            if let Err(e) = ix.check_invariants() {
                return Err(TestCaseError::fail(format!("{how} {}: {e}", def.name)));
            }
        }
        let entries = |ix: &SecondaryIndex| -> Vec<_> {
            let all = ix.scan_all().entries.into_iter();
            all.map(|e| (e.rid, e.key_vals, e.included_vals)).collect()
        };
        prop_assert!(
            entries(live) == entries(&rebuilt),
            "index {} differs from its rebuild",
            def.name
        );
    }
    Ok(())
}

/// `part` ⊆ `whole` as multisets, under `Value`'s equality. With equal
/// lengths that is multiset equality.
fn is_sub_multiset(mut part: Vec<Row>, mut whole: Vec<Row>) -> bool {
    part.sort();
    whole.sort();
    let mut rest = whole.iter();
    part.iter().all(|p| rest.any(|w| w == p))
}

// ---------------------------------------------------------------------
// The properties
// ---------------------------------------------------------------------

/// Drive `steps` random statements (index DDL now and then) on both
/// sides; returns the world for the caller to inspect.
fn run_interleaving(seed: u64, steps: usize) -> Result<World, TestCaseError> {
    let (mut world, mut rng) = build_world(seed);
    for _ in 0..steps {
        match rng.random_range(0..25) {
            0 => world.create_index(&mut rng, None),
            1 => world.create_covering_index(&mut rng),
            _ => {
                // Reads twice as likely as writes; every shape is reachable.
                let r = rng.random_range(0..20u32);
                let shape = if r < 16 { r % 8 } else { r - 8 };
                let (stmt, params) = world.statement(&mut rng, shape);
                world.step(&stmt, &params)?;
            }
        }
    }
    world.on_purpose(&mut rng)?;
    let (db, twin) = (&world.db, &world.twin);
    let (from, to) = (Timestamp::EPOCH, Timestamp(u64::MAX));
    for metric in [Metric::CpuTime, Metric::LogicalReads, Metric::Duration] {
        let a = db.query_store().total_resources(metric, from, to);
        let b = twin.query_store().total_resources(metric, from, to);
        prop_assert!(a.to_bits() == b.to_bits(), "{metric:?}: {a} vs {b}");
    }
    prop_assert!(db.total_cpu_us.to_bits() == twin.total_cpu_us.to_bits());
    let usage =
        |db: &Database| -> Vec<_> { db.usage_dmv().all().map(|(id, u)| (id, *u)).collect() };
    prop_assert_eq!(usage(db), usage(twin));
    Ok(world)
}

/// Salted with `CHAOS_SEED`, so CI's chaos matrix draws different cases
/// per seed.
#[test]
fn executor_agrees_with_naive_evaluator() {
    let salt = std::env::var("CHAOS_SEED").unwrap_or_default();
    proptest::run_prop_test(
        &format!("executor_agrees_with_naive_evaluator/{salt}"),
        &ProptestConfig::with_cases(64),
        (any::<u64>(), 40usize..90),
        |(seed, steps)| run_interleaving(seed, steps).map(drop),
    );
}

/// The generator above is only worth its name if it reaches the paths
/// the executor rewrite touched, and the SELECT shapes a result-free
/// execution must count right. Fixed seeds, so this cannot flake.
#[test]
fn interleavings_reach_every_access_path_and_join_strategy() {
    let mut paths = [0u32; 5];
    let mut shapes = [0u32; 5];
    let mut misfits = [0u32; 2];
    let mut covering = [0u32; Covering::N];
    for seed in 0..16 {
        let world = run_interleaving(seed, 80).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        for (total, n) in paths.iter_mut().zip(world.paths) {
            *total += n;
        }
        for (total, n) in shapes.iter_mut().zip(world.shapes) {
            *total += n;
        }
        for (total, n) in covering.iter_mut().zip(world.covering) {
            *total += n;
        }
        for (total, n) in misfits.iter_mut().zip(world.misfits) {
            *total += n;
        }
    }
    assert!(paths.iter().all(|&n| n >= 10), "{paths:?}");
    assert!(shapes.iter().all(|&n| n >= 10), "{shapes:?}");
    assert!(covering.iter().all(|&n| n >= 5), "{covering:?}");
    assert!(misfits.iter().all(|&n| n >= 10), "{misfits:?}");
}

/// UPDATE and DELETE whose access path is the very index they modify, by
/// equality and by a range the new key falls inside: targets are
/// collected before the first write, so the statement neither misses nor
/// revisits an entry it moved itself. Once with an index that holds whole
/// rows (a covering DML access, re-fetched from the heap) and once with
/// one that holds only its key.
#[test]
fn dml_through_the_index_it_modifies() {
    for included in [vec![ColumnId(0), ColumnId(2)], vec![]] {
        let covering = !included.is_empty();
        let mut db = Database::new("self", DbConfig::default(), SimClock::new());
        let columns = ["id", "bucket", "payload"].map(|n| ColumnDef::new(n, ValueType::Int));
        let t = db
            .create_table(TableDef::new("t", columns.to_vec()).with_primary_key(ColumnId(0)))
            .unwrap();
        let rows: Vec<Row> = (0..3000i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 100), Value::Int(i)])
            .collect();
        db.load_rows(t, rows.clone());
        db.rebuild_stats(t);
        db.create_index(IndexDef::new("by_bucket", t, vec![ColumnId(1)], included))
            .unwrap();
        let mut reference = Tables::from([(t, rows)]);
        storage_matches(&db, &reference, t).unwrap_or_else(|e| panic!("after CREATE INDEX: {e:?}"));

        let by_bucket = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        let in_range = vec![
            Predicate::param(ColumnId(1), CmpOp::Ge, 0),
            Predicate::param(ColumnId(1), CmpOp::Lt, 1),
        ];
        let update = |predicates: &[Predicate], new_bucket: u16| Statement::Update {
            table: t,
            predicates: predicates.to_vec(),
            set: vec![(ColumnId(1), Scalar::Param(new_bucket))],
        };
        let delete = Statement::Delete {
            table: t,
            predicates: by_bucket.clone(),
        };
        let int = |v: &[i64]| -> Vec<Value> { v.iter().map(|&i| Value::Int(i)).collect() };
        for (stmt, params, expect) in [
            // Every entry of bucket 7 moves forward, to 8; then all 60 on.
            (update(&by_bucket, 1), int(&[7, 8]), 30),
            (update(&by_bucket, 1), int(&[8, 99]), 60),
            // Buckets 20..23 move to 21: inside the range being read.
            (update(&in_range, 2), int(&[20, 23, 21]), 90),
            (delete.clone(), int(&[99]), 90),
            (delete.clone(), int(&[21]), 90),
            (delete.clone(), int(&[7]), 0),
        ] {
            let tpl = QueryTemplate::new(stmt.clone(), params.len() as u16);
            let (plan, _) = db.what_if().cost(&tpl, &params);
            let (Plan::Update(p) | Plan::Delete(p)) = &plan else {
                panic!("DML plans as DML: {plan:?}");
            };
            match &p.access {
                Access::IndexSeek { covering: c, .. } => assert_eq!(*c, covering),
                other => panic!("expected a seek on by_bucket, planned {other:?}"),
            }
            let out = db.execute(&tpl, &params).unwrap();
            assert_eq!(out.metrics.rows_returned, expect, "{stmt:?} {params:?}");
            let types = [ValueType::Int; 3];
            assert_eq!(
                apply_write(&mut reference, &types, &stmt, &params),
                Some(expect)
            );
            storage_matches(&db, &reference, t).unwrap_or_else(|e| panic!("{stmt:?}: {e:?}"));
        }
        assert_eq!(reference[&t].len(), 3000 - 180);
    }
}
