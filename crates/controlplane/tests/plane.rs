//! Control-plane closed-loop tests: the six-stage tick pipeline driven
//! against a seeded single-tenant database. (Moved out of `plane.rs`
//! when the monolithic tick was split into stage modules.)

use controlplane::dashboard::DashboardSnapshot;
use controlplane::faults::{FaultInjector, FaultKind, FaultPoint};
use controlplane::plane::{ControlPlane, ManagedDb, PlanePolicy, RecommenderPolicy, RetryPolicy};
use controlplane::state::{DbSettings, RecoId, RecoState, ServerSettings, Setting};
use controlplane::telemetry::EventKind;
use sqlmini::clock::{Duration, SimClock};
use sqlmini::engine::{Database, DbConfig, ServiceTier};
use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
use sqlmini::schema::{ColumnDef, ColumnId, TableDef, TableId};
use sqlmini::types::{Value, ValueType};

fn managed_db(seed: u64) -> (ManagedDb, QueryTemplate, TableId) {
    let mut db = Database::new(
        format!("tenant{seed}"),
        DbConfig {
            seed,
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
        (0..20_000i64).map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 400),
                Value::Float((i % 700) as f64),
            ]
        }),
    );
    db.rebuild_stats(t);
    let mut q = SelectQuery::new(t);
    q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
    q.projection = vec![ColumnId(0), ColumnId(2)];
    let tpl = QueryTemplate::new(Statement::Select(q), 1);
    let settings = DbSettings {
        auto_create: Setting::On,
        auto_drop: Setting::On,
    };
    (
        ManagedDb::new(db, settings, ServerSettings::default()),
        tpl,
        t,
    )
}

/// Drive workload + control plane through `hours` of simulated time.
fn drive(plane: &mut ControlPlane, mdb: &mut ManagedDb, tpl: &QueryTemplate, hours: u64) {
    for h in 0..hours {
        for i in 0..20 {
            mdb.db
                .execute(tpl, &[Value::Int(((h * 20 + i) % 400) as i64)])
                .unwrap();
        }
        mdb.db.clock().advance(Duration::from_hours(1));
        plane.tick(mdb);
    }
}

#[test]
fn retry_policy_backoff_is_deterministic_capped_and_jittered_early() {
    let p = RetryPolicy::default();
    let id = RecoId(42);
    assert_eq!(p.delay(id, 1), p.delay(id, 1), "pure function of inputs");
    let no_jitter = RetryPolicy {
        jitter: 0.0,
        ..p.clone()
    };
    assert_eq!(no_jitter.delay(id, 1), no_jitter.base);
    assert_eq!(no_jitter.delay(id, 2).millis(), no_jitter.base.millis() * 2);
    assert_eq!(no_jitter.delay(id, 10), no_jitter.cap, "growth is capped");
    // Jitter only shortens (de-synchronizes retries without ever
    // extending the worst case), bounded by the jitter fraction.
    for attempts in 1..6 {
        for raw in 0..50u64 {
            let jittered = p.delay(RecoId(raw), attempts);
            let unjittered = no_jitter.delay(RecoId(raw), attempts);
            assert!(jittered <= unjittered);
            assert!(
                jittered.millis() as f64 >= unjittered.millis() as f64 * (1.0 - p.jitter) - 1.0
            );
        }
    }
    // ...and actually spreads distinct ids apart.
    let spread: std::collections::BTreeSet<u64> =
        (0..20).map(|i| p.delay(RecoId(i), 1).millis()).collect();
    assert!(spread.len() > 10, "jitter must spread retries: {spread:?}");
}

#[test]
fn retry_eligibility_fires_exactly_at_the_backoff_boundary() {
    // `entered + delay == now` is the instant the wake schedule names:
    // eligibility must flip exactly there, not one tick later.
    let p = RetryPolicy {
        jitter: 0.0,
        ..RetryPolicy::default()
    };
    let id = RecoId(7);
    let entered = sqlmini::clock::Timestamp(5_000_000);
    let delay = p.delay(id, 1);
    let boundary = entered + delay;
    assert!(!p.eligible(
        id,
        1,
        entered,
        sqlmini::clock::Timestamp(boundary.millis() - 1)
    ));
    assert!(p.eligible(id, 1, entered, boundary), "due at the boundary");
    // Near the end of time the due instant saturates instead of
    // wrapping, so an over-long delay simply never becomes eligible.
    let late = sqlmini::clock::Timestamp(u64::MAX - 10);
    assert!(!p.eligible(id, 1, late, sqlmini::clock::Timestamp(u64::MAX - 5)));
    assert_eq!(late + delay, sqlmini::clock::Timestamp(u64::MAX));
}

#[test]
fn journal_tear_fault_recovers_through_telemetry() {
    let (mut mdb, tpl, _) = managed_db(9);
    let mut faults = FaultInjector::disabled();
    faults.script(FaultPoint::JournalTear, 3, FaultKind::Transient);
    let mut plane = ControlPlane::new(PlanePolicy::default()).with_faults(faults);
    drive(&mut plane, &mut mdb, &tpl, 24);
    assert_eq!(plane.telemetry.count(EventKind::StoreRecovered), 3);
    assert!(plane.faults.scripted_is_empty());
    // The loop kept working through the tears.
    drive(&mut plane, &mut mdb, &tpl, 12);
    assert!(!plane.store.is_empty());
}

#[test]
fn closed_loop_creates_and_validates_index() {
    let (mut mdb, tpl, t) = managed_db(1);
    let mut plane = ControlPlane::new(PlanePolicy {
        analysis_interval: Duration::from_hours(4),
        validation_min_wait: Duration::from_hours(3),
        ..PlanePolicy::default()
    });
    drive(&mut plane, &mut mdb, &tpl, 36);
    // An auto index must exist on customer_id...
    let auto_ix = mdb
        .db
        .catalog()
        .indexes()
        .find(|(_, d)| d.key_columns.first() == Some(&ColumnId(1)) && d.table == t);
    assert!(auto_ix.is_some(), "no auto index created");
    // ...and its recommendation must have reached Success.
    let success = plane.store.all().any(|r| r.state == RecoState::Success);
    assert!(success, "states: {:?}", plane.store.count_by_state());
    assert!(plane.telemetry.count(EventKind::ValidationImproved) >= 1);
    assert_eq!(plane.telemetry.count(EventKind::RevertSucceeded), 0);
}

#[test]
fn dta_session_metrics_feed_dashboard() {
    let (mut mdb, tpl, _) = managed_db(6);
    let mut plane = ControlPlane::new(PlanePolicy {
        recommender: RecommenderPolicy::DtaOnly,
        analysis_interval: Duration::from_hours(4),
        ..PlanePolicy::default()
    });
    drive(&mut plane, &mut mdb, &tpl, 24);
    let sessions = plane.metrics.counter("dta.sessions");
    let issued = plane.metrics.counter("dta.whatif.issued");
    let saved_cache = plane.metrics.counter("dta.whatif.saved.cache");
    assert!(sessions >= 1, "DtaOnly policy must run DTA sessions");
    assert!(issued > 0, "sessions must issue what-if calls");
    // Every session re-costs the first greedy round against configs
    // the single-benefit pass already cached.
    assert!(saved_cache > 0, "cost cache must absorb repeat configs");
    assert_eq!(plane.metrics.counter("dta.sessions.aborted"), 0);

    let snap = DashboardSnapshot::new(&plane.telemetry, &plane.metrics, Duration::from_hours(24));
    assert_eq!(snap.dta_sessions, sessions);
    assert_eq!(snap.what_if_issued, issued);
    assert_eq!(snap.what_if_saved_cache, saved_cache);
    assert!(snap.what_if_cache_hit_rate() > 0.0);
    assert!(snap.what_if_saved_fraction() > 0.0);
    let rendered = snap.render();
    assert!(
        rendered.contains("DTA what-if budget"),
        "dashboard must render the what-if block once sessions ran:\n{rendered}"
    );
}

#[test]
fn no_auto_create_without_permission() {
    let (mut mdb, tpl, _) = managed_db(2);
    mdb.settings = DbSettings::default(); // inherit: server default off
    let mut plane = ControlPlane::new(PlanePolicy::default());
    drive(&mut plane, &mut mdb, &tpl, 24);
    // Recommendations exist but none implemented.
    assert!(
        !plane.store.is_empty(),
        "recommendations should be generated"
    );
    assert_eq!(plane.telemetry.count(EventKind::ImplementStarted), 0);
    assert_eq!(
        mdb.db.catalog().n_indexes(),
        0,
        "nothing may be implemented without permission"
    );
}

#[test]
fn transient_faults_retried_to_success() {
    let (mut mdb, tpl, _) = managed_db(3);
    let mut faults = FaultInjector::disabled();
    faults.script(FaultPoint::IndexBuild, 2, FaultKind::Transient);
    let mut plane = ControlPlane::new(PlanePolicy::default()).with_faults(faults);
    drive(&mut plane, &mut mdb, &tpl, 36);
    assert!(plane.telemetry.count(EventKind::ImplementFailedTransient) >= 2);
    assert!(
        plane.telemetry.count(EventKind::ImplementSucceeded) >= 1,
        "retries must eventually succeed: {:?}",
        plane.store.count_by_state()
    );
    assert!(plane.store.all().any(|r| r.state == RecoState::Success));
    // Each transient park announced its backoff window exactly once.
    assert_eq!(plane.telemetry.count(EventKind::RetryBackoffWait), 2);
}

#[test]
fn retry_budget_exhaustion_raises_incident() {
    let (mut mdb, tpl, _) = managed_db(4);
    let mut faults = FaultInjector::disabled();
    faults.script(FaultPoint::IndexBuild, 99, FaultKind::Transient);
    let mut plane = ControlPlane::new(PlanePolicy {
        max_retry_attempts: 2,
        ..PlanePolicy::default()
    })
    .with_faults(faults);
    drive(&mut plane, &mut mdb, &tpl, 36);
    assert!(plane.store.all().any(|r| r.state == RecoState::Error));
    assert!(!plane.telemetry.incidents().is_empty());
}

#[test]
fn store_recovery_mid_flight() {
    let (mut mdb, tpl, _) = managed_db(5);
    let mut plane = ControlPlane::new(PlanePolicy::default());
    drive(&mut plane, &mut mdb, &tpl, 10);
    let before = plane.store.count_by_state();
    plane.store.crash_and_recover();
    assert_eq!(plane.store.count_by_state(), before);
    // The loop keeps functioning after recovery.
    drive(&mut plane, &mut mdb, &tpl, 26);
    assert!(plane.store.all().any(|r| r.state == RecoState::Success));
}

#[test]
fn stale_recommendations_expire() {
    let (mut mdb, tpl, _) = managed_db(6);
    // No auto-implementation: recommendations sit in Active.
    mdb.settings = DbSettings::default();
    let mut plane = ControlPlane::new(PlanePolicy {
        reco_expiry: Duration::from_days(2),
        ..PlanePolicy::default()
    });
    drive(&mut plane, &mut mdb, &tpl, 24 * 4);
    assert!(
        plane.telemetry.count(EventKind::RecommendationExpired) >= 1,
        "{:?}",
        plane.store.count_by_state()
    );
}

#[test]
fn dta_deferred_outside_low_activity_falls_back_to_mi() {
    let (mut mdb, tpl, _) = managed_db(8);
    mdb.db.config.tier = ServiceTier::Premium;
    let mut plane = ControlPlane::new(PlanePolicy {
        recommender: RecommenderPolicy::DtaOnly,
        dta_low_activity_only: true,
        analysis_interval: Duration::from_hours(4),
        ..PlanePolicy::default()
    });
    // Build two full days of flat always-busy history first (no
    // ticks) so the 2-day activity profile sees every hour-of-day
    // exactly twice: everything is peak, nothing is "low activity".
    for h in 0..48u64 {
        for i in 0..20 {
            mdb.db
                .execute(&tpl, &[Value::Int(((h * 20 + i) % 400) as i64)])
                .unwrap();
        }
        mdb.db.clock().advance(Duration::from_hours(1));
    }
    drive(&mut plane, &mut mdb, &tpl, 30);
    // DTA was suppressed during busy hours; recommendations (if any)
    // came from the MI fallback path.
    for r in plane.store.all() {
        assert_ne!(
            r.recommendation.source,
            autoindex::RecoSource::Dta,
            "DTA must not run during busy hours"
        );
    }
}

#[test]
fn manual_apply_bypasses_setting_but_validates() {
    let (mut mdb, tpl, _) = managed_db(7);
    mdb.settings = DbSettings::default(); // auto off
    let mut plane = ControlPlane::new(PlanePolicy::default());
    drive(&mut plane, &mut mdb, &tpl, 14);
    let id = plane
        .store
        .all()
        .find(|r| r.state == RecoState::Active)
        .map(|r| r.id)
        .expect("an active recommendation");
    assert!(plane.apply_manually(&mut mdb, id));
    assert_eq!(plane.store.get(id).unwrap().state, RecoState::Validating);
    // Keep driving: validation completes.
    drive(&mut plane, &mut mdb, &tpl, 12);
    assert_eq!(plane.store.get(id).unwrap().state, RecoState::Success);
}
