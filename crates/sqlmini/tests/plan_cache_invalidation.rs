//! Plan-cache invalidation regressions: every catalog mutation that can
//! change plan choice must bump the tenant's config fingerprint and
//! force a re-plan, hypothetical indexes must never leak into cached
//! executions, and the deliberately-stale-cache harness must produce a
//! *detectable* divergence — proving the differential test layer is
//! capable of failing.

use sqlmini::clock::SimClock;
use sqlmini::engine::{Database, DbConfig};
use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
use sqlmini::schema::{ColumnDef, ColumnId, IndexDef, TableDef, TableId};
use sqlmini::types::{Value, ValueType};

fn orders_db(rows: i64, cache: bool) -> (Database, TableId) {
    let mut db = Database::new(
        "inv",
        DbConfig {
            plan_cache: cache,
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

fn cust_template(t: TableId) -> QueryTemplate {
    let mut q = SelectQuery::new(t);
    q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
    q.projection = vec![ColumnId(0), ColumnId(3)];
    QueryTemplate::new(Statement::Select(q), 1)
}

#[test]
fn index_create_bumps_fingerprint_and_forces_replan() {
    let (mut db, t) = orders_db(20_000, true);
    let tpl = cust_template(t);
    let before = db.execute(&tpl, &[Value::Int(3)]).unwrap();
    db.execute(&tpl, &[Value::Int(7)]).unwrap();
    assert_eq!(db.plan_cache_stats.hits, 1, "second binding must hit");
    let fp = db.config_fingerprint(&[t]);

    db.create_index(IndexDef::new(
        "ix_cust",
        t,
        vec![ColumnId(1)],
        vec![ColumnId(0), ColumnId(3)],
    ))
    .unwrap();
    assert_ne!(
        fp,
        db.config_fingerprint(&[t]),
        "CREATE INDEX must bump the catalog fingerprint"
    );
    let after = db.execute(&tpl, &[Value::Int(3)]).unwrap();
    assert_eq!(
        db.plan_cache_stats.invalidations, 1,
        "the stale entry must be counted as an invalidation, not a hit"
    );
    assert_ne!(before.plan_id, after.plan_id, "re-plan must pick the index");
    assert!(after.referenced_indexes.contains(&"ix_cust".to_string()));
}

#[test]
fn index_drop_bumps_fingerprint_and_forces_replan() {
    let (mut db, t) = orders_db(20_000, true);
    let (id, _) = db
        .create_index(IndexDef::new(
            "ix_cust",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0), ColumnId(3)],
        ))
        .unwrap();
    let tpl = cust_template(t);
    let (seeked, seeked_rows) = db.query(&tpl, &[Value::Int(3)]).unwrap();
    assert!(seeked.referenced_indexes.contains(&"ix_cust".to_string()));
    let fp = db.config_fingerprint(&[t]);

    db.drop_index(id).unwrap();
    assert_ne!(
        fp,
        db.config_fingerprint(&[t]),
        "DROP INDEX must bump the catalog fingerprint"
    );
    let invalidations = db.plan_cache_stats.invalidations;
    let (scanned, scanned_rows) = db.query(&tpl, &[Value::Int(3)]).unwrap();
    assert!(
        db.plan_cache_stats.invalidations > invalidations,
        "dropping the plan's index must invalidate the cached entry"
    );
    assert_ne!(seeked.plan_id, scanned.plan_id);
    assert!(scanned.referenced_indexes.is_empty());
    assert_eq!(
        seeked_rows.len(),
        scanned_rows.len(),
        "plan change must not change semantics"
    );
}

#[test]
fn stats_refresh_bumps_fingerprint_and_forces_replan() {
    let (mut db, t) = orders_db(20_000, true);
    let tpl = cust_template(t);
    db.execute(&tpl, &[Value::Int(3)]).unwrap();
    db.execute(&tpl, &[Value::Int(5)]).unwrap();
    let fp = db.config_fingerprint(&[t]);
    let (hits, invalidations) = (db.plan_cache_stats.hits, db.plan_cache_stats.invalidations);

    db.rebuild_stats(t);
    assert_ne!(
        fp,
        db.config_fingerprint(&[t]),
        "a stats refresh must bump the catalog fingerprint"
    );
    db.execute(&tpl, &[Value::Int(3)]).unwrap();
    assert_eq!(db.plan_cache_stats.hits, hits, "stale entry must not hit");
    assert_eq!(db.plan_cache_stats.invalidations, invalidations + 1);
}

#[test]
fn hypothetical_indexes_never_leak_into_cached_plans() {
    let (mut db, t) = orders_db(20_000, true);
    let tpl = cust_template(t);
    let before = db.execute(&tpl, &[Value::Int(3)]).unwrap();
    let fp = db.config_fingerprint(&[t]);

    // A what-if session sees its hypotheticals in its *own* fingerprint
    // (that visibility is what keys the DTA cost cache) ...
    let hypo = IndexDef::new("hypo_cust", t, vec![ColumnId(1)], vec![ColumnId(0)]);
    let mut session = db.what_if();
    let session_fp_base = session.config_fingerprint(&[t]);
    session.add_hypothetical(hypo);
    let (hypo_plan, _) = session.cost(&tpl, &[Value::Int(3)]);
    assert!(
        !hypo_plan.referenced_indexes().is_empty(),
        "the session must see its hypothetical index"
    );
    assert_ne!(
        session_fp_base,
        session.config_fingerprint(&[t]),
        "hypotheticals must be visible to the session fingerprint"
    );
    drop(session);

    // ... but the database's catalog fingerprint and plan cache are
    // untouched: the next execution is a plain hit on the old plan.
    assert_eq!(
        fp,
        db.config_fingerprint(&[t]),
        "a what-if session must not bump the tenant fingerprint"
    );
    let hits = db.plan_cache_stats.hits;
    let after = db.execute(&tpl, &[Value::Int(3)]).unwrap();
    assert_eq!(db.plan_cache_stats.hits, hits + 1);
    assert_eq!(before.plan_id, after.plan_id);
    assert!(after.referenced_indexes.is_empty());
}

/// The tests above can only be trusted if a broken invalidation story is
/// *detectable*: freeze the catalog epochs (the deliberately-stale-cache
/// harness), perform DDL, and the cached engine now visibly diverges
/// from the cache-off oracle — different plan, different metrics.
#[test]
fn frozen_epochs_make_cached_run_diverge_from_oracle() {
    let (mut cached, t) = orders_db(20_000, true);
    let (mut oracle, _) = orders_db(20_000, false);
    let tpl = cust_template(t);

    // Warm both engines, then break invalidation in the cached one only.
    let a = cached.execute(&tpl, &[Value::Int(3)]).unwrap();
    let b = oracle.execute(&tpl, &[Value::Int(3)]).unwrap();
    assert_eq!(a.plan_id, b.plan_id, "warm-up must agree");
    cached.debug_freeze_epochs(true);

    let ix = IndexDef::new(
        "ix_cust",
        t,
        vec![ColumnId(1)],
        vec![ColumnId(0), ColumnId(3)],
    );
    cached.create_index(ix.clone()).unwrap();
    oracle.create_index(ix).unwrap();

    let stale = cached.execute(&tpl, &[Value::Int(3)]).unwrap();
    let fresh = oracle.execute(&tpl, &[Value::Int(3)]).unwrap();
    assert_ne!(
        stale.plan_id, fresh.plan_id,
        "a frozen-epoch cache must keep serving the stale scan plan"
    );
    assert!(stale.referenced_indexes.is_empty());
    assert!(fresh.referenced_indexes.contains(&"ix_cust".to_string()));
    assert!(
        stale.metrics.logical_reads > fresh.metrics.logical_reads,
        "the stale plan's physical cost must differ detectably"
    );

    // Epoch bumps swallowed during the freeze are gone for good: thawing
    // alone leaves the stale entry validating. The next *real* catalog
    // event (here a stats refresh on both engines) re-converges the pair.
    cached.debug_freeze_epochs(false);
    let still_stale = cached.execute(&tpl, &[Value::Int(3)]).unwrap();
    assert_eq!(still_stale.plan_id, stale.plan_id);
    cached.rebuild_stats(t);
    oracle.rebuild_stats(t);
    let healed = cached.execute(&tpl, &[Value::Int(3)]).unwrap();
    let oracle_now = oracle.execute(&tpl, &[Value::Int(3)]).unwrap();
    assert_eq!(healed.plan_id, oracle_now.plan_id);
}

/// Single-engine differential smoke: an identical statement/DDL sequence
/// under cache-on and cache-off produces bit-identical outcomes tick by
/// tick — the unit-scale version of the fleet equivalence property.
#[test]
fn cached_and_uncached_engines_agree_through_ddl() {
    let (mut on, t) = orders_db(10_000, true);
    let (mut off, _) = orders_db(10_000, false);
    let tpl = cust_template(t);
    let ix = IndexDef::new(
        "ix_cust",
        t,
        vec![ColumnId(1)],
        vec![ColumnId(0), ColumnId(3)],
    );

    for step in 0..8 {
        if step == 3 {
            on.create_index(ix.clone()).unwrap();
            off.create_index(ix.clone()).unwrap();
        }
        if step == 6 {
            on.rebuild_stats(t);
            off.rebuild_stats(t);
        }
        let p = [Value::Int(step * 37 % 250)];
        let a = on.execute(&tpl, &p).unwrap();
        let b = off.execute(&tpl, &p).unwrap();
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "outcome diverged at step {step}"
        );
    }
    assert!(on.plan_cache_stats.hits > 0, "the cached engine must hit");
    assert_eq!(
        off.plan_cache_stats.hits, 0,
        "the oracle must never consult a cache"
    );
}
