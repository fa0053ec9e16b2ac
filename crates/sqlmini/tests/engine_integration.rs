//! Engine-level integration tests: the pieces working together through
//! the public API only.

use sqlmini::clock::{Duration, SimClock, Timestamp};
use sqlmini::engine::{Database, DbConfig, ServiceTier};
use sqlmini::parser::parse_template;
use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
use sqlmini::querystore::Metric;
use sqlmini::schema::{ColumnDef, ColumnId, IndexDef, TableDef, TableId};
use sqlmini::types::{Value, ValueType};

fn orders_db(rows: i64) -> (Database, TableId) {
    let mut db = Database::new("it", DbConfig::default(), SimClock::new());
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
                Value::Int(i % 250),
                Value::Int(i % 7),
                Value::Float((i % 640) as f64),
            ]
        }),
    );
    db.rebuild_stats(t);
    (db, t)
}

#[test]
fn best_index_chosen_among_several() {
    let (mut db, t) = orders_db(20_000);
    db.create_index(IndexDef::new("ix_status", t, vec![ColumnId(2)], vec![]))
        .unwrap();
    db.create_index(IndexDef::new(
        "ix_cust",
        t,
        vec![ColumnId(1)],
        vec![ColumnId(0), ColumnId(3)],
    ))
    .unwrap();
    db.create_index(IndexDef::new(
        "ix_cust_status",
        t,
        vec![ColumnId(1), ColumnId(2)],
        vec![ColumnId(0), ColumnId(3)],
    ))
    .unwrap();
    // Both predicates: the composite covering index should win.
    let mut q = SelectQuery::new(t);
    q.predicates = vec![
        Predicate::cmp(ColumnId(1), CmpOp::Eq, 9i64),
        Predicate::cmp(ColumnId(2), CmpOp::Eq, 2i64),
    ];
    q.projection = vec![ColumnId(0), ColumnId(3)];
    let (out, rows) = db
        .query(&QueryTemplate::new(Statement::Select(q), 0), &[])
        .unwrap();
    assert_eq!(*out.referenced_indexes, vec!["ix_cust_status".to_string()]);
    // Semantics: rows where i%250==9 and i%7==2.
    let expected = (0..20_000i64)
        .filter(|i| i % 250 == 9 && i % 7 == 2)
        .count();
    assert_eq!(rows.len(), expected);
}

#[test]
fn what_if_remove_real_restores_scan_cost() {
    let (mut db, t) = orders_db(20_000);
    let (id, _) = db
        .create_index(IndexDef::new(
            "ix_cust",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(3)],
        ))
        .unwrap();
    let mut q = SelectQuery::new(t);
    q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
    q.projection = vec![ColumnId(0), ColumnId(3)];
    let tpl = QueryTemplate::new(Statement::Select(q), 1);
    let mut session = db.what_if();
    let (_, with_ix) = session.cost(&tpl, &[Value::Int(5)]);
    session.remove_real(id);
    let (plan, without) = session.cost(&tpl, &[Value::Int(5)]);
    assert!(
        without.cpu_us > with_ix.cpu_us * 5.0,
        "hiding the index must restore scan-level cost: {} vs {}",
        without.cpu_us,
        with_ix.cpu_us
    );
    assert!(plan.referenced_indexes().is_empty());
}

#[test]
fn query_store_alignment_helpers() {
    let (db, _) = orders_db(100);
    let qs = db.query_store();
    let h = Duration::from_hours(1).millis();
    assert_eq!(qs.align_down(Timestamp(h + 5)), Timestamp(h));
    assert_eq!(qs.align_up(Timestamp(h + 5)), Timestamp(2 * h));
    assert_eq!(
        qs.align_up(Timestamp(h)),
        Timestamp(h),
        "aligned is identity"
    );
    assert_eq!(qs.align_down(Timestamp(0)), Timestamp(0));
}

#[test]
fn tier_changes_duration_not_cpu() {
    let run = |tier: ServiceTier| {
        let mut db = Database::new(
            "tier",
            DbConfig {
                tier,
                cpu_noise_sigma: 0.0,
                duration_noise_sigma: 0.0,
                ..DbConfig::default()
            },
            SimClock::new(),
        );
        let t = db
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("x", ValueType::Int),
                ],
            ))
            .unwrap();
        db.load_rows(
            t,
            (0..5000i64).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
        );
        db.rebuild_stats(t);
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::cmp(ColumnId(1), CmpOp::Eq, 3i64)];
        q.projection = vec![ColumnId(0)];
        let out = db
            .execute(&QueryTemplate::new(Statement::Select(q), 0), &[])
            .unwrap();
        (out.metrics.cpu_us, out.duration_us)
    };
    let (cpu_basic, dur_basic) = run(ServiceTier::Basic);
    let (cpu_prem, dur_prem) = run(ServiceTier::Premium);
    assert!(
        (cpu_basic - cpu_prem).abs() < 1e-9,
        "CPU is tier-independent"
    );
    assert!(
        dur_basic > dur_prem * 10.0,
        "Basic (0.5 cores) must be ~16x slower than Premium (8 cores): {dur_basic} vs {dur_prem}"
    );
}

#[test]
fn sql_parsed_workload_populates_query_store_and_mi() {
    let (mut db, _) = orders_db(10_000);
    let tpl = parse_template(
        db.catalog(),
        "SELECT id, total FROM orders WHERE customer_id = @p0 AND status = @p1",
    )
    .unwrap();
    for i in 0..20 {
        db.execute(&tpl, &[Value::Int(i % 250), Value::Int(i % 7)])
            .unwrap();
        db.clock().advance(Duration::from_mins(5));
    }
    let agg = db.query_store().query_stats(
        tpl.query_id(),
        Timestamp::EPOCH,
        db.clock().now() + Duration(1),
    );
    assert_eq!(agg.count(), 20);
    assert!(
        db.query_store().total_resources(
            Metric::LogicalReads,
            Timestamp::EPOCH,
            db.clock().now() + Duration(1)
        ) > 0.0
    );
    // MI demand accumulated with both equality columns.
    let (key, stats) = db.mi_dmv().entries().next().expect("an MI entry");
    assert_eq!(key.equality_columns.len(), 2);
    assert_eq!(stats.user_seeks, 20);
}

#[test]
fn plan_cache_sniffing_is_observable() {
    // First execution binds the plan; a second binding with a wildly
    // different parameter reuses it (same plan id), even though a fresh
    // compile might choose differently.
    let (mut db, t) = orders_db(20_000);
    db.create_index(IndexDef::new("ix_cust", t, vec![ColumnId(1)], vec![]))
        .unwrap();
    let mut q = SelectQuery::new(t);
    q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
    q.projection = vec![ColumnId(0), ColumnId(3)];
    let tpl = QueryTemplate::new(Statement::Select(q), 1);
    let a = db.execute(&tpl, &[Value::Int(3)]).unwrap();
    let b = db.execute(&tpl, &[Value::Int(200)]).unwrap();
    assert_eq!(a.plan_id, b.plan_id, "cached plan reused across bindings");
    // DDL invalidates: a new index triggers recompilation.
    db.create_index(IndexDef::new(
        "ix_cov",
        t,
        vec![ColumnId(1)],
        vec![ColumnId(0), ColumnId(3)],
    ))
    .unwrap();
    let c = db.execute(&tpl, &[Value::Int(3)]).unwrap();
    assert_ne!(a.plan_id, c.plan_id, "DDL must invalidate the plan cache");
    assert!(c.referenced_indexes.contains(&"ix_cov".to_string()));
}

#[test]
fn storage_accounting_tracks_ddl() {
    let (mut db, t) = orders_db(20_000);
    let before = db.storage_bytes();
    let (id, report) = db
        .create_index(IndexDef::new("ix", t, vec![ColumnId(1)], vec![ColumnId(3)]))
        .unwrap();
    let with_ix = db.storage_bytes();
    assert_eq!(with_ix, before + report.index_size_bytes);
    db.drop_index(id).unwrap();
    assert_eq!(db.storage_bytes(), before);
}
