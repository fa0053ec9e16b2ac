//! Regenerates the **validation quality** analysis implied by §6: how
//! reliably the validator detects regressions and improvements of varying
//! magnitude under concurrency noise, on logical vs physical metrics, and
//! how the per-statement and aggregate revert policies differ.
//!
//! Scenario per trial: a query workload runs before and after an index
//! change whose true effect is a known CPU-time multiplier; the validator
//! must call it. Sweeps effect size × noise level.
//!
//! ```text
//! cargo run -p bench --release --bin validation_quality
//! ```
//!
//! It checks the §6 shape it prints: the regression arm must reach
//! `Regressed` in at least 90% of its trials at noise 0.05 and 0.15. If
//! it does not, it says by how much and exits non-zero.

use autoindex::validator::{validate, ChangeKind, RevertPolicy, ValidatorConfig, Verdict};
use bench::Args;
use sqlmini::clock::{Duration, SimClock};
use sqlmini::engine::{Database, DbConfig};
use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
use sqlmini::schema::{ColumnDef, ColumnId, IndexDef, TableDef, TableId};
use sqlmini::types::{Value, ValueType};

/// Build a database whose query can be made faster (good index) or run
/// against a deliberately non-covering index (regression via lookups).
fn scenario_db(seed: u64, noise: f64) -> (Database, TableId, QueryTemplate) {
    let mut db = Database::new(
        format!("val{seed}"),
        DbConfig {
            seed,
            cpu_noise_sigma: noise,
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
                ColumnDef::new("total", ValueType::Float),
            ],
        ))
        .unwrap();
    db.load_rows(
        t,
        (0..8000i64).map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 200),
                Value::Float((i % 500) as f64),
            ]
        }),
    );
    db.rebuild_stats(t);
    let mut q = SelectQuery::new(t);
    q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
    q.projection = vec![ColumnId(0), ColumnId(2)];
    (db, t, QueryTemplate::new(Statement::Select(q), 1))
}

fn run_phase(
    db: &mut Database,
    tpl: &QueryTemplate,
    execs: usize,
) -> (sqlmini::clock::Timestamp, sqlmini::clock::Timestamp) {
    let start = db.clock().now();
    for i in 0..execs {
        db.execute(tpl, &[Value::Int((i % 200) as i64)]).unwrap();
        db.clock().advance(Duration::from_mins(3));
    }
    (start, db.clock().now())
}

/// One trial.
///
/// * **good** arm: a read workload gets a covering index — validation
///   should call Improved.
/// * **bad** arm: a write-dominated workload gets an index the recommender
///   wanted for a rare read; every UPDATE now pays the maintenance (the
///   paper's dominant revert cause, §8.1) — validation should call
///   Regressed on the update statement.
fn trial(seed: u64, noise: f64, good: bool, policy: RevertPolicy, execs: usize) -> Verdict {
    let (mut db, t, read_tpl) = scenario_db(seed, noise);
    let cfg = ValidatorConfig {
        policy,
        ..ValidatorConfig::default()
    };
    if good {
        let before = run_phase(&mut db, &read_tpl, execs);
        db.create_index(IndexDef::new(
            "ix_trial",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(2)],
        ))
        .unwrap();
        let after = run_phase(&mut db, &read_tpl, execs);
        return validate(&db, "ix_trial", ChangeKind::Created, before, after, &cfg).verdict;
    }
    // Bad arm: cheap-search updates dominate; the new index is pure
    // maintenance overhead for them.
    db.create_index(IndexDef::new("ix_id", t, vec![ColumnId(0)], vec![]))
        .unwrap();
    let upd = QueryTemplate::new(
        Statement::Update {
            table: t,
            predicates: vec![Predicate::param(ColumnId(0), CmpOp::Eq, 0)],
            set: vec![(ColumnId(2), sqlmini::query::Scalar::Param(1))],
        },
        2,
    );
    // Row `i * 13` takes `offset + i`: the after phase's offset differs
    // from the before phase's, so every UPDATE there changes its row and
    // pays the new index's maintenance, not a write of the value the row
    // already holds.
    let run_writes = |db: &mut Database, n: usize, offset: usize| {
        let start = db.clock().now();
        for i in 0..n {
            let row = Value::Int((i * 13 % 8000) as i64);
            db.execute(&upd, &[row, Value::Float((offset + i) as f64)])
                .unwrap();
            // The rare read that generated the MI demand.
            if i % 20 == 0 {
                db.execute(&read_tpl, &[Value::Int((i % 200) as i64)])
                    .unwrap();
            }
            db.clock().advance(Duration::from_mins(3));
        }
        (start, db.clock().now())
    };
    let before = run_writes(&mut db, execs, 0);
    // The maintenance trap: keys + include both rewritten by the update.
    db.create_index(IndexDef::new(
        "ix_trial",
        t,
        vec![ColumnId(1)],
        vec![ColumnId(2)],
    ))
    .unwrap();
    let after = run_writes(&mut db, execs, execs);
    validate(&db, "ix_trial", ChangeKind::Created, before, after, &cfg).verdict
}

fn main() {
    let args = Args::parse();
    let trials = args.get_or::<usize>("trials", 10);
    let execs = args.get_or::<usize>("execs", 60);

    println!(
        "== Validation quality (§6): {trials} trials per cell, {execs} executions per phase ==\n"
    );
    println!("-- Detection rates vs concurrency noise (per-statement policy) --");
    println!(
        "{:>8} {:>22} {:>22}",
        "noise", "good -> Improved", "bad -> Regressed"
    );
    // The shape checked: bad -> Regressed at least this often at noise
    // 0.05 and 0.15.
    const BAR: f64 = 0.9;
    let mut missed: Vec<String> = Vec::new();
    for noise in [0.05, 0.15, 0.3, 0.5] {
        let mut improved = 0;
        let mut regressed = 0;
        for s in 0..trials as u64 {
            if trial(s, noise, true, RevertPolicy::PerStatement, execs) == Verdict::Improved {
                improved += 1;
            }
            if trial(1000 + s, noise, false, RevertPolicy::PerStatement, execs)
                == Verdict::Regressed
            {
                regressed += 1;
            }
        }
        let share = regressed as f64 / trials as f64;
        println!(
            "{noise:>8.2} {:>21.0}% {:>21.0}%",
            improved as f64 / trials as f64 * 100.0,
            share * 100.0
        );
        if noise <= 0.15 && share < BAR {
            missed.push(format!(
                "bad -> Regressed {:.0}% at noise {noise:.2}, under the {:.0}% bar",
                share * 100.0,
                BAR * 100.0
            ));
        }
    }

    println!("\n-- Policy comparison on the regression arm (noise 0.15) --");
    for policy in [RevertPolicy::PerStatement, RevertPolicy::Aggregate] {
        let mut counts = std::collections::BTreeMap::new();
        for s in 0..trials as u64 {
            let v = trial(2000 + s, 0.15, false, policy, execs);
            *counts.entry(format!("{v:?}")).or_insert(0usize) += 1;
        }
        println!("  {policy:?}: {counts:?}");
    }

    println!("\n-- Sample-size sensitivity (good index, noise 0.3) --");
    println!("{:>8} {:>12}", "execs", "Improved%");
    for e in [10usize, 20, 40, 80] {
        let mut improved = 0;
        for s in 0..trials as u64 {
            if trial(3000 + s, 0.3, true, RevertPolicy::PerStatement, e) == Verdict::Improved {
                improved += 1;
            }
        }
        println!("{e:>8} {:>11.0}%", improved as f64 / trials as f64 * 100.0);
    }
    if !missed.is_empty() {
        println!("\nDIVERGENCE from §6's shape:");
        missed.iter().for_each(|m| println!("  {m}"));
        std::process::exit(1);
    }
    println!(
        "\nshape holds: bad -> Regressed >= {:.0}% at noise 0.05 and 0.15",
        BAR * 100.0
    );
}
