//! Low-activity scheduling (§6: "scheduling most of the operations during
//! periods of low activity for the database").
//!
//! The control plane has no application knowledge; it infers the
//! database's activity profile from Query Store: resource consumption per
//! hour-of-day over the trailing day(s). Resource-intensive actions (index
//! builds) are deferred to hours whose historical activity is below a
//! fraction of the peak.

use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::Database;
use sqlmini::querystore::Metric;

/// Scheduling policy.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// How much history to profile.
    pub lookback: Duration,
    /// An hour is "low activity" when its historical consumption is below
    /// this fraction of the peak hour.
    pub low_fraction: f64,
    /// Without enough history, default to permitting the action.
    pub min_history_hours: u64,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            lookback: Duration::from_days(2),
            low_fraction: 0.5,
            min_history_hours: 12,
        }
    }
}

/// Hour-of-day activity profile (24 buckets of CPU consumption).
pub fn activity_profile(db: &Database, cfg: &SchedulerConfig, now: Timestamp) -> [f64; 24] {
    let qs = db.query_store();
    let from = Timestamp(now.millis().saturating_sub(cfg.lookback.millis()));
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
pub fn is_low_activity(db: &Database, cfg: &SchedulerConfig, now: Timestamp) -> bool {
    let profile = activity_profile(db, cfg, now);
    let peak = profile.iter().cloned().fold(0.0f64, f64::max);
    let with_history = profile.iter().filter(|&&v| v > 0.0).count() as u64;
    if peak <= 0.0 || with_history < cfg.min_history_hours.min(24) {
        return true; // no data: don't block actions forever
    }
    let hod = ((now.millis() / 3_600_000) % 24) as usize;
    profile[hod] <= cfg.low_fraction * peak
}

/// The next time at or after `now` that falls in a low-activity hour
/// (bounded search over the next 48 hours; falls back to `now`).
pub fn next_low_activity_window(db: &Database, cfg: &SchedulerConfig, now: Timestamp) -> Timestamp {
    let profile = activity_profile(db, cfg, now);
    let peak = profile.iter().cloned().fold(0.0f64, f64::max);
    if peak <= 0.0 {
        return now;
    }
    for h in 0..48u64 {
        let t = Timestamp(((now.millis() / 3_600_000) + h) * 3_600_000);
        let hod = ((t.millis() / 3_600_000) % 24) as usize;
        if profile[hod] <= cfg.low_fraction * peak {
            return t.max(now);
        }
    }
    now
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
        let profile = activity_profile(&db, &SchedulerConfig::default(), db.clock().now());
        assert!(profile[12] > 0.0);
        assert_eq!(profile[3], 0.0);
    }

    #[test]
    fn night_is_low_activity_day_is_not() {
        let db = diurnal_db();
        let cfg = SchedulerConfig {
            min_history_hours: 6,
            ..SchedulerConfig::default()
        };
        // Now = hour 48 => hod 0 (night).
        assert!(is_low_activity(&db, &cfg, db.clock().now()));
        // Mid-day.
        let noon = Timestamp(db.clock().now().millis() + Duration::from_hours(12).millis());
        assert!(!is_low_activity(&db, &cfg, noon));
    }

    #[test]
    fn next_window_skips_business_hours() {
        let db = diurnal_db();
        let cfg = SchedulerConfig {
            min_history_hours: 6,
            ..SchedulerConfig::default()
        };
        // From noon, the next low window is at hour >= 20.
        let noon = Timestamp(db.clock().now().millis() + Duration::from_hours(12).millis());
        let w = next_low_activity_window(&db, &cfg, noon);
        let hod = (w.millis() / 3_600_000) % 24;
        assert!(!(8..20).contains(&hod), "window at hod {hod}");
        assert!(w >= noon);
    }

    #[test]
    fn no_history_permits_everything() {
        let db = Database::new("empty", DbConfig::default(), SimClock::new());
        assert!(is_low_activity(
            &db,
            &SchedulerConfig::default(),
            Timestamp(0)
        ));
        assert_eq!(
            next_low_activity_window(&db, &SchedulerConfig::default(), Timestamp(123)),
            Timestamp(123)
        );
    }
}
