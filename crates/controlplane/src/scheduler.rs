//! Low-activity scheduling (§6: "scheduling most of the operations during
//! periods of low activity for the database").
//!
//! The control plane has no application knowledge; it infers the
//! database's activity profile from Query Store: resource consumption per
//! hour-of-day over the trailing day(s). Resource-intensive actions (index
//! builds) are deferred to hours whose historical activity is at most
//! half the peak's. The policy is the constants below, not a setting.

use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::Database;
use sqlmini::querystore::Metric;

/// How much history to profile.
const LOOKBACK: Duration = Duration::from_days(2);

/// An hour is "low activity" when its historical consumption is at most
/// this fraction of the peak hour.
const LOW_FRACTION: f64 = 0.5;

/// Hours of the day that must have seen activity before any hour is
/// judged; with less history, the action is permitted.
const MIN_HISTORY_HOURS: u64 = 12;

/// Hour-of-day activity profile (24 buckets of CPU consumption).
pub fn activity_profile(db: &Database, now: Timestamp) -> [f64; 24] {
    let qs = db.query_store();
    let from = Timestamp(now.millis().saturating_sub(LOOKBACK.millis()));
    let mut buckets = [0.0f64; 24];
    // Walk hour-wide windows.
    let hour = Duration::from_hours(1);
    let mut t = from;
    while t < now {
        let end = (t + hour).min(now);
        let consumed = qs.total_resources(Metric::CpuTime, t, end);
        let hod = ((t.millis() / hour.millis()) % 24) as usize;
        buckets[hod] += consumed;
        t = end;
    }
    buckets
}

/// Whether `now` falls in a low-activity hour.
pub fn is_low_activity(db: &Database, now: Timestamp) -> bool {
    let profile = activity_profile(db, now);
    let peak = profile.iter().cloned().fold(0.0f64, f64::max);
    let with_history = profile.iter().filter(|&&v| v > 0.0).count() as u64;
    if peak <= 0.0 || with_history < MIN_HISTORY_HOURS {
        return true; // no data: don't block actions forever
    }
    let hod = ((now.millis() / 3_600_000) % 24) as usize;
    profile[hod] <= LOW_FRACTION * peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlmini::clock::SimClock;
    use sqlmini::engine::DbConfig;
    use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
    use sqlmini::schema::{ColumnDef, ColumnId, TableDef};
    use sqlmini::types::{Value, ValueType};

    /// A database whose workload runs only during "business hours"
    /// (hours 8..20 of each day).
    fn diurnal_db() -> Database {
        let mut db = Database::new("s", DbConfig::default(), SimClock::new());
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
            (0..2000i64).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
        );
        db.rebuild_stats(t);
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0)];
        let tpl = QueryTemplate::new(Statement::Select(q), 1);
        // Two full days of history.
        for hour in 0..48u64 {
            let hod = hour % 24;
            if (8..20).contains(&hod) {
                for i in 0..20 {
                    db.execute(&tpl, &[Value::Int(i)]).unwrap();
                }
            }
            db.clock().advance(Duration::from_hours(1));
        }
        db
    }

    #[test]
    fn profile_shows_business_hours() {
        let db = diurnal_db();
        let profile = activity_profile(&db, db.clock().now());
        assert!(profile[12] > 0.0);
        assert_eq!(profile[3], 0.0);
    }

    #[test]
    fn night_is_low_activity_day_is_not() {
        let db = diurnal_db();
        // Now = hour 48 => hod 0 (night).
        assert!(is_low_activity(&db, db.clock().now()));
        // Mid-day.
        let noon = Timestamp(db.clock().now().millis() + Duration::from_hours(12).millis());
        assert!(!is_low_activity(&db, noon));
    }

    #[test]
    fn no_history_permits_everything() {
        let db = Database::new("empty", DbConfig::default(), SimClock::new());
        assert!(is_low_activity(&db, Timestamp(0)));
    }
}
