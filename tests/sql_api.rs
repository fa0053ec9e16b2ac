//! Cross-crate integration: the SQL surface — statements written as SQL
//! text drive the same engine, recommender, and validation machinery.

use autoindex::classifier::ImpactClassifier;
use autoindex::mi::{recommend, MiConfig, MiSnapshotStore};
use autoindex::RecoAction;
use sqlmini::clock::{Duration, SimClock};
use sqlmini::engine::{Database, DbConfig, EngineError};
use sqlmini::exec::ExecError;
use sqlmini::parser::{parse, parse_template};
use sqlmini::schema::{ColumnDef, ColumnId, IndexDef, TableDef};
use sqlmini::types::{Row, Value, ValueType};

fn shop_db() -> Database {
    let mut db = Database::new("shop", DbConfig::default(), SimClock::new());
    let orders = db
        .create_table(TableDef::new(
            "orders",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("customer_id", ValueType::Int),
                ColumnDef::new("status", ValueType::Str),
                ColumnDef::new("total", ValueType::Float),
            ],
        ))
        .unwrap();
    let customers = db
        .create_table(TableDef::new(
            "customers",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("region", ValueType::Str),
            ],
        ))
        .unwrap();
    db.load_rows(
        orders,
        (0..10_000i64).map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 200),
                Value::Str(if i % 3 == 0 { "open" } else { "done" }.into()),
                Value::Float((i % 100) as f64),
            ]
        }),
    );
    db.load_rows(
        customers,
        (0..200i64).map(|i| {
            vec![
                Value::Int(i),
                Value::Str(format!("region_{}", i % 4).into()),
            ]
        }),
    );
    db.rebuild_all_stats();
    db
}

#[test]
fn select_dml_roundtrip_through_sql() {
    let mut db = shop_db();
    let q = parse_template(
        db.catalog(),
        "SELECT id, total FROM orders WHERE customer_id = 7 AND status = 'open'",
    )
    .unwrap();
    let (_, rows) = db.query(&q, &[]).unwrap();
    let expected = (0..10_000i64)
        .filter(|i| i % 200 == 7 && i % 3 == 0)
        .count();
    assert_eq!(rows.len(), expected);

    // UPDATE then verify through SQL again.
    let upd = parse_template(
        db.catalog(),
        "UPDATE orders SET status = 'done' WHERE customer_id = 7",
    )
    .unwrap();
    let res = db.execute(&upd, &[]).unwrap();
    assert_eq!(res.metrics.rows_returned, 50);
    let (_, after) = db.query(&q, &[]).unwrap();
    assert!(after.is_empty());

    // DELETE everything for one customer.
    let del = parse_template(db.catalog(), "DELETE FROM orders WHERE customer_id = 7").unwrap();
    let res = db.execute(&del, &[]).unwrap();
    assert_eq!(res.metrics.rows_returned, 50);
}

/// The write rule through SQL: an `Int` literal written to a `Float`
/// column is stored as its `f64` and reads back as a `Float`; a string
/// written to an `Int` column is refused with the typed error, and no row,
/// no index entry and no CPU is charged to the table.
#[test]
fn writes_fit_their_columns_or_are_refused() {
    let mut db = shop_db();
    let (orders, _) = db.catalog().table_by_name("orders").unwrap();
    let def = IndexDef::new("ix_cust", orders, vec![ColumnId(1)], vec![ColumnId(3)]);
    let (ix, _) = db.create_index(def).unwrap();
    let sql = |db: &Database, text: &str| parse_template(db.catalog(), text).unwrap();

    db.execute(&sql(&db, "UPDATE orders SET total = 5 WHERE id = 7"), &[])
        .unwrap();
    let read = sql(&db, "SELECT total FROM orders WHERE id = 7");
    let (_, rows) = db.query(&read, &[]).unwrap();
    assert!(
        matches!(rows[..], [ref r] if matches!(r[0], Value::Float(x) if x == 5.0)),
        "{rows:?}"
    );

    let storage = |db: &Database| {
        let heap = db.heap(orders).unwrap();
        let rows: Vec<Row> = heap.live_ids().filter_map(|r| heap.row(r)).collect();
        let entries = db.secondary_index(ix).unwrap().scan_all().entries;
        let entries: Vec<_> = (entries.into_iter())
            .map(|e| format!("{:?}", (e.rid, e.key_vals, e.included_vals)))
            .collect();
        (format!("{rows:?}"), entries)
    };
    let (before, cpu) = (storage(&db), db.total_cpu_us);
    let bad = sql(&db, "UPDATE orders SET customer_id = 'x' WHERE id = 7");
    match db.execute(&bad, &[]) {
        Err(EngineError::Exec(ExecError::TypeMismatch {
            table,
            column,
            expected,
            got,
        })) => {
            assert_eq!((table.as_str(), column.as_str()), ("orders", "customer_id"));
            assert_eq!((expected, got), (ValueType::Int, Value::Str("x".into())));
        }
        other => panic!("expected a type mismatch, got {other:?}"),
    }
    assert!(storage(&db) == before, "a refused UPDATE changed the table");
    assert_eq!(db.total_cpu_us.to_bits(), cpu.to_bits());
}

#[test]
fn join_group_order_through_sql() {
    let mut db = shop_db();
    let q = parse_template(
        db.catalog(),
        "SELECT orders.id, customers.region FROM orders \
         JOIN customers ON orders.customer_id = customers.id \
         WHERE customers.region = 'region_1' ORDER BY id ASC LIMIT 20",
    )
    .unwrap();
    let (_, rows) = db.query(&q, &[]).unwrap();
    assert_eq!(rows.len(), 20);
    for row in &rows {
        assert_eq!(row[1], Value::Str("region_1".into()));
    }
    let agg = parse_template(
        db.catalog(),
        "SELECT status, COUNT(id), SUM(total) FROM orders GROUP BY status",
    )
    .unwrap();
    let (_, groups) = db.query(&agg, &[]).unwrap();
    assert_eq!(groups.len(), 2); // open, done
}

#[test]
fn sql_driven_workload_feeds_recommender() {
    let mut db = shop_db();
    let q = parse_template(
        db.catalog(),
        "SELECT id, total FROM orders WHERE customer_id = @p0",
    )
    .unwrap();
    let mut store = MiSnapshotStore::new();
    for h in 0..5 {
        for i in 0..25 {
            db.execute(&q, &[Value::Int((h * 25 + i) % 200)]).unwrap();
        }
        db.clock().advance(Duration::from_hours(1));
        store.take_snapshot(&db);
    }
    let analysis = recommend(
        &db,
        &store,
        &MiConfig::default(),
        &ImpactClassifier::default(),
    );
    assert_eq!(analysis.recommendations.len(), 1);
    let RecoAction::CreateIndex { def } = &analysis.recommendations[0].action else {
        panic!("expected a create");
    };
    // customer_id is column 1 of orders.
    assert_eq!(def.key_columns, vec![sqlmini::schema::ColumnId(1)]);
}

#[test]
fn parse_errors_are_friendly() {
    let db = shop_db();
    for bad in [
        "SELECT id FROM missing_table",
        "SELECT nope FROM orders",
        "UPDATE orders SET",
        "DELETE orders",
        "INSERT INTO orders VALUES (1)",
    ] {
        let err = parse(db.catalog(), bad).unwrap_err();
        assert!(!err.message.is_empty(), "{bad}");
    }
}
