//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **MI pipeline stages** (§5.2): recommendations with and without
//!    index merging and the low-impact classifier.
//! 2. **Stale statistics** (the estimate/actual gap): optimizer quality
//!    with auto-update-statistics on vs off, measured as the mean
//!    absolute relative error of row estimates.
//! 3. **MI vs DTA maintenance awareness**: what each recommends on a
//!    write-heavy workload (MI cannot see maintenance costs; DTA can).
//!
//! ```text
//! cargo run -p bench --release --bin ablations
//! ```

use autoindex::classifier::ImpactClassifier;
use autoindex::dta::{tune, DtaConfig};
use autoindex::mi::{recommend, MiConfig, MiSnapshotStore};
use bench::Args;
use sqlmini::clock::{Duration, SimClock};
use sqlmini::engine::{Database, DbConfig};
use sqlmini::query::{CmpOp, Predicate, QueryTemplate, Scalar, SelectQuery, Statement};
use sqlmini::schema::{ColumnDef, ColumnId, TableDef, TableId};
use sqlmini::types::{Value, ValueType};

fn orders_db(auto_stats: bool, seed: u64) -> (Database, TableId) {
    let mut db = Database::new(
        format!("abl{seed}"),
        DbConfig {
            seed,
            auto_update_stats: auto_stats,
            ..DbConfig::default()
        },
        SimClock::new(),
    );
    let t = db
        .create_table(TableDef::new(
            "orders",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("customer_id", ValueType::Int),
                ColumnDef::new("region", ValueType::Int),
                ColumnDef::new("total", ValueType::Float),
            ],
        ))
        .unwrap();
    db.load_rows(
        t,
        (0..20_000i64).map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 400),
                Value::Int((i % 400) / 40), // correlated with customer_id
                Value::Float((i % 900) as f64),
            ]
        }),
    );
    db.rebuild_stats(t);
    (db, t)
}

/// Ablation 1: MI stages.
fn mi_stage_ablation() {
    println!("-- Ablation 1: MI pipeline stages (§5.2) --");
    // Workload with mergeable demand: queries on (c1) and (c1, c3).
    let (mut db, t) = orders_db(true, 1);
    let mut store = MiSnapshotStore::new();
    let mut q1 = SelectQuery::new(t);
    q1.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
    q1.projection = vec![ColumnId(0)];
    let tpl1 = QueryTemplate::new(Statement::Select(q1), 1);
    let mut q2 = SelectQuery::new(t);
    q2.predicates = vec![
        Predicate::param(ColumnId(1), CmpOp::Eq, 0),
        Predicate::param(ColumnId(3), CmpOp::Ge, 1),
        Predicate::param(ColumnId(3), CmpOp::Lt, 2),
    ];
    q2.projection = vec![ColumnId(0), ColumnId(2)];
    let tpl2 = QueryTemplate::new(Statement::Select(q2), 3);
    for h in 0..8i64 {
        for i in 0..15 {
            db.execute(&tpl1, &[Value::Int((h * 15 + i) % 400)])
                .unwrap();
            db.execute(
                &tpl2,
                &[
                    Value::Int((h * 15 + i) % 400),
                    Value::Float(100.0),
                    Value::Float(300.0),
                ],
            )
            .unwrap();
        }
        db.clock().advance(Duration::from_hours(1));
        store.take_snapshot(&db);
    }
    println!(
        "{:>32} {:>8} {:>10} {:>12}",
        "configuration", "recos", "merged", "clf-filtered"
    );
    for (label, merging, classifier) in [
        ("full pipeline", true, true),
        ("no merging", false, true),
        ("no classifier", true, false),
        ("raw candidates", false, false),
    ] {
        let cfg = MiConfig {
            use_merging: merging,
            use_classifier: classifier,
            max_recommendations: 10,
        };
        let a = recommend(&db, &store, &cfg, &ImpactClassifier::default());
        println!(
            "{label:>32} {:>8} {:>10} {:>12}",
            a.recommendations.len(),
            a.merged_away,
            a.filtered_classifier
        );
    }
    println!("  (merging folds the (c1) candidate into (c1, total); fewer, wider indexes)\n");
}

/// Ablation 2: stale statistics widen the estimate/actual gap.
fn stale_stats_ablation() {
    println!("-- Ablation 2: auto-update statistics vs stale statistics --");
    println!(
        "{:>24} {:>22} {:>22}",
        "configuration", "mean est/actual err", "max est/actual err"
    );
    for (label, auto) in [("auto-update on", true), ("auto-update off", false)] {
        let (mut db, t) = orders_db(auto, 2);
        // Churn: double the table after stats were built.
        let ins = QueryTemplate::new(
            Statement::Insert {
                table: t,
                values: (0..4u16).map(Scalar::Param).collect(),
            },
            4,
        );
        for i in 0..20_000i64 {
            db.execute(
                &ins,
                &[
                    Value::Int(50_000 + i),
                    Value::Int(400 + i % 100), // NEW value range: stats blind
                    Value::Int(10),
                    Value::Float(0.0),
                ],
            )
            .unwrap();
        }
        // Queries over the new value range.
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0)];
        let tpl = QueryTemplate::new(Statement::Select(q), 1);
        let mut errs = Vec::new();
        for i in 0..50 {
            let out = db.execute(&tpl, &[Value::Int(400 + i % 100)]).unwrap();
            let actual = out.metrics.rows_returned.max(1) as f64;
            let est = out.estimates.rows_out.max(1e-3);
            errs.push((est - actual).abs() / actual);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let max = errs.iter().cloned().fold(0.0f64, f64::max);
        println!("{label:>24} {mean:>21.2}x {max:>21.2}x");
    }
    println!(
        "  (stale stats estimate ~0 rows for post-build values; the validator absorbs this)\n"
    );
}

/// Ablation 3: maintenance awareness, MI vs DTA.
fn maintenance_ablation() {
    println!("-- Ablation 3: write-heavy workload, MI vs DTA (§5.1.1 trade-off) --");
    let (mut db, t) = orders_db(true, 3);
    let mut store = MiSnapshotStore::new();
    // A rare read and an insert firehose.
    let mut q = SelectQuery::new(t);
    q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
    q.projection = vec![ColumnId(0)];
    let read = QueryTemplate::new(Statement::Select(q), 1);
    let ins = QueryTemplate::new(
        Statement::Insert {
            table: t,
            values: (0..4u16).map(Scalar::Param).collect(),
        },
        4,
    );
    let mut next = 100_000i64;
    for h in 0..8i64 {
        for i in 0..4 {
            db.execute(&read, &[Value::Int((h * 4 + i) % 400)]).unwrap();
        }
        for _ in 0..200 {
            db.execute(
                &ins,
                &[
                    Value::Int(next),
                    Value::Int(next % 400),
                    Value::Int(0),
                    Value::Float(0.0),
                ],
            )
            .unwrap();
            next += 1;
        }
        db.clock().advance(Duration::from_hours(1));
        store.take_snapshot(&db);
    }
    let mi = recommend(
        &db,
        &store,
        &MiConfig::default(),
        &ImpactClassifier::default(),
    );
    let dta = tune(
        &mut db,
        &DtaConfig {
            window: Duration::from_hours(10),
            ..DtaConfig::default()
        },
    );
    println!(
        "  MI  recommends {} index(es)   (maintenance-blind: sees only the read's demand)",
        mi.recommendations.len()
    );
    println!(
        "  DTA recommends {} index(es)   (costed the inserts' maintenance; improvement {:.1}%)",
        dta.recommendations.len(),
        dta.improvement_frac() * 100.0
    );
    println!(
        "  paper: exactly this asymmetry drives MI's revert skew toward write regressions (§8.1)"
    );
}

fn main() {
    let _ = Args::parse();
    println!("== Ablations ==\n");
    mi_stage_ablation();
    stale_stats_ablation();
    maintenance_ablation();
}
