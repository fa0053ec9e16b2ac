//! Engine-level microbenchmarks: statement execution throughput (plan
//! cache warm/cold) and the what-if API's per-call overhead — the number
//! the paper's DTA resource budget (§5.3.1) is denominated in.

use criterion::{criterion_group, criterion_main, Criterion};
use sqlmini::clock::SimClock;
use sqlmini::engine::{Database, DbConfig};
use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
use sqlmini::schema::{ColumnDef, ColumnId, IndexDef, TableDef, TableId};
use sqlmini::types::{Value, ValueType};
use std::hint::black_box;

fn make_db(rows: i64) -> (Database, TableId) {
    let mut db = Database::new("bench", DbConfig::default(), SimClock::new());
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
        (0..rows).map(|i| {
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

fn tpl(t: TableId) -> QueryTemplate {
    let mut q = SelectQuery::new(t);
    q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
    q.projection = vec![ColumnId(0), ColumnId(3)];
    QueryTemplate::new(Statement::Select(q), 1)
}

fn bench_execute_indexed(c: &mut Criterion) {
    let (mut db, t) = make_db(50_000);
    db.create_index(IndexDef::new(
        "ix",
        t,
        vec![ColumnId(1)],
        vec![ColumnId(0), ColumnId(3)],
    ))
    .unwrap();
    let q = tpl(t);
    let mut i = 0i64;
    c.bench_function("engine/execute_indexed_seek", |b| {
        b.iter(|| {
            i += 1;
            black_box(db.query(&q, &[Value::Int(i % 500)]).unwrap().1.len())
        });
    });
}

fn bench_execute_scan(c: &mut Criterion) {
    let (mut db, t) = make_db(10_000);
    let q = tpl(t);
    let mut i = 0i64;
    c.bench_function("engine/execute_seq_scan_10k", |b| {
        b.iter(|| {
            i += 1;
            black_box(db.query(&q, &[Value::Int(i % 500)]).unwrap().1.len())
        });
    });
}

fn bench_what_if(c: &mut Criterion) {
    let (mut db, t) = make_db(50_000);
    let q = tpl(t);
    c.bench_function("engine/what_if_cost_call", |b| {
        let mut session = db.what_if();
        session.add_hypothetical(IndexDef::new(
            "hypo",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(3)],
        ));
        b.iter(|| {
            let (_, est) = session.cost(&q, &[Value::Int(42)]);
            black_box(est.cpu_us)
        });
    });
}

fn bench_create_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/create_index");
    g.sample_size(10);
    g.bench_function("create_index_20k_rows", |b| {
        b.iter_batched(
            || make_db(20_000),
            |(mut db, t)| {
                let (id, report) = db
                    .create_index(IndexDef::new("ix", t, vec![ColumnId(1)], vec![ColumnId(3)]))
                    .unwrap();
                black_box((id, report.index_size_bytes))
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_execute_indexed,
    bench_execute_scan,
    bench_what_if,
    bench_create_index
);
criterion_main!(benches);
