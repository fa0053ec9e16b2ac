//! Differential test of statement execution (ROADMAP 5a, scoped to the
//! executor): `Database::query` — cost-based plans, the plan cache,
//! covering and non-covering index access, both join strategies, borrowed
//! row views — against a naive evaluator that has none of that: rows in a
//! `Vec`, nested loops, `Vec<Row>` in and out of every operator.
//!
//! Over random schemas, random indexes and random interleavings of the
//! workload generator's twelve statement shapes, both sides must agree on
//! every result, and after every write each secondary index must equal
//! one rebuilt from the heap.
//!
//! A twin database runs the same DDL and statements in lockstep through
//! `Database::execute`, which builds no result set. It must record what
//! `query` records: the same metrics, bit for bit, and the same plan for
//! every statement, and in the end the same Query Store and usage DMV.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlmini::clock::{SimClock, Timestamp};
use sqlmini::engine::{Database, DbConfig};
use sqlmini::index::SecondaryIndex;
use sqlmini::plan::{Access, JoinStrategy, Plan};
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

/// Apply a write to the reference; returns the rows affected.
fn apply_write(tables: &mut Tables, stmt: &Statement, params: &[Value]) -> u64 {
    let resolve =
        |values: &[Scalar]| -> Row { values.iter().map(|s| s.resolve(params).clone()).collect() };
    let hit = |preds: &[Predicate], r: &Row| preds.iter().all(|p| p.matches(r, params));
    match stmt {
        Statement::Select(_) => unreachable!("not a write"),
        Statement::Insert { table, values } => {
            tables.get_mut(table).unwrap().push(resolve(values));
            1
        }
        Statement::BulkInsert {
            table,
            values,
            rows,
        } => {
            let t = tables.get_mut(table).unwrap();
            t.extend((0..*rows).map(|_| resolve(values)));
            u64::from(*rows)
        }
        Statement::Update {
            table,
            predicates,
            set,
        } => {
            let mut n = 0;
            for row in tables.get_mut(table).unwrap() {
                if hit(predicates, row) {
                    n += 1;
                    for (c, s) in set {
                        row[c.0 as usize] = s.resolve(params).clone();
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
    }
}

// ---------------------------------------------------------------------
// Random schemas, data, indexes and statements
// ---------------------------------------------------------------------

/// What a column holds. Domains are small, so predicates hit and groups
/// merge; `Mixed` puts `Int(k)`, `Float(k.0)` and `Float(k.5)` in one
/// column, which `Value`'s order treats as numbers. Every float is a
/// multiple of 0.5, so sums are exact in any order of addition.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Pk,
    Small(i64),
    Mixed,
    Text,
    Day,
}

impl Kind {
    fn value_type(self) -> ValueType {
        match self {
            Kind::Pk | Kind::Small(_) => ValueType::Int,
            Kind::Mixed => ValueType::Float,
            Kind::Text => ValueType::Str,
            Kind::Day => ValueType::Date,
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
            Kind::Text => Value::Str(format!("s{}", rng.random_range(0..5)).into()),
            Kind::Day => Value::Date(rng.random_range(0..10)),
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
        matches!(self, Kind::Small(_) | Kind::Mixed | Kind::Day)
    }
}

struct Table {
    id: TableId,
    /// `kinds[0]` is `Kind::Pk`.
    kinds: Vec<Kind>,
    next_pk: i64,
}

impl Table {
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
    /// that returned no row, two-column GROUP BYs. Read by the coverage
    /// test.
    shapes: [u32; 3],
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
        shapes: [0; 3],
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
            kinds.push(match rng.random_range(0..5) {
                0 => Kind::Small(rng.random_range(2..40)),
                1 => Kind::Small(3),
                2 => Kind::Mixed,
                3 => Kind::Text,
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
        world.reference.insert(id, data);
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
            // JoinQuery: always from the outer table to the inner pk.
            6 => {
                let (outer, inner) = (&self.tables[0], &self.tables[1]);
                q = SelectQuery::new(outer.id);
                q.projection = outer.projection(rng, &[]);
                if rng.random() {
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
                    outer_col: ColumnId(1),
                    inner_col: ColumnId(0),
                    predicates,
                    projection: inner.projection(rng, &[]),
                });
                if rng.random_range(0..4) == 0 {
                    q.limit = Some(rng.random_range(1..30));
                }
            }
            // InsertRow and BulkLoad
            8 | 11 => {
                let t = &mut self.tables[side];
                let values = (0..t.kinds.len() as u16).map(Scalar::Param).collect();
                let params = t.new_row(rng);
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
                params.push(t.kind(target).stored(rng, rows));
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
        // not pick for tables this small run too.
        if rng.random_range(0..3) == 0 {
            let on_table: Vec<String> = self
                .db
                .catalog()
                .indexes_on(q.table)
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
            let affected = apply_write(&mut self.reference, stmt, params);
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

/// After a write to `table` or index DDL on it: the heap holds the
/// reference's rows, and every index on it is a well-formed tree holding
/// what a rebuild from the heap gives. The live index got there by
/// `insert_row`/`delete_row`/`update_row` and the rebuild by the bulk
/// build, so this is also a differential between those two paths.
fn storage_matches(db: &Database, reference: &Tables, table: TableId) -> Result<(), TestCaseError> {
    let heap = db.heap(table).expect("table has a heap");
    let rows: Vec<Row> = heap.scan_quiet().map(|(_, r)| r.clone()).collect();
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
        if rng.random_range(0..25) == 0 {
            world.create_index(&mut rng, None);
            continue;
        }
        // Reads twice as likely as writes; every shape is reachable.
        let r = rng.random_range(0..20u32);
        let shape = if r < 16 { r % 8 } else { r - 8 };
        let (stmt, params) = world.statement(&mut rng, shape);
        world.step(&stmt, &params)?;
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn executor_agrees_with_naive_evaluator(seed in any::<u64>(), steps in 40usize..90) {
        run_interleaving(seed, steps)?;
    }
}

/// The generator above is only worth its name if it reaches the paths
/// the executor rewrite touched, and the SELECT shapes a result-free
/// execution must count right. Fixed seeds, so this cannot flake.
#[test]
fn interleavings_reach_every_access_path_and_join_strategy() {
    let mut paths = [0u32; 5];
    let mut shapes = [0u32; 3];
    for seed in 0..16 {
        let world = run_interleaving(seed, 80).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        for (total, n) in paths.iter_mut().zip(world.paths) {
            *total += n;
        }
        for (total, n) in shapes.iter_mut().zip(world.shapes) {
            *total += n;
        }
    }
    assert!(paths.iter().all(|&n| n >= 10), "{paths:?}");
    assert!(shapes.iter().all(|&n| n >= 10), "{shapes:?}");
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
            assert_eq!(apply_write(&mut reference, &stmt, &params), expect);
            storage_matches(&db, &reference, t).unwrap_or_else(|e| panic!("{stmt:?}: {e:?}"));
        }
        assert_eq!(reference[&t].len(), 3000 - 180);
    }
}
