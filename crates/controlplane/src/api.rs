//! The management surface of §2 — the programmatic equivalent of the
//! Azure-portal UI in Figures 1–3 and of the REST/T-SQL APIs: configure
//! the service per database or per logical server, list current
//! recommendations with their estimated impact and affected statements,
//! inspect a recommendation's details, apply one manually, and read the
//! full history of automated actions with before/after execution costs.

use crate::plane::{ControlPlane, ManagedDb};
use crate::state::{RecoId, RecoState, Setting};
use autoindex::RecoAction;
use sqlmini::clock::Timestamp;
use sqlmini::query::QueryId;
use sqlmini::querystore::Metric;

/// Figure 1's per-database configuration row: desired setting plus the
/// effective ("current") state after server inheritance.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct SettingsView {
    database: String,
    auto_create_desired: String,
    auto_drop_desired: String,
    /// Effective values after inheritance (the "Current State" column).
    auto_create_effective: bool,
    auto_drop_effective: bool,
}

/// Figure 2's recommendation-list row.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct RecommendationSummary {
    pub id: RecoId,
    action: String,
    source: String,
    state: String,
    estimated_improvement_pct: f64,
    estimated_size_bytes: u64,
    created_at: Timestamp,
}

/// Figure 3's detail view: everything in the summary plus the impacted
/// statements and (for completed actions) measured before/after costs.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct RecommendationDetails {
    summary: RecommendationSummary,
    /// Statements the recommender expects to improve.
    impacted_statements: Vec<ImpactedStatement>,
    /// State-machine history (time, from, to, note).
    history: Vec<(Timestamp, String, String, String)>,
    /// Measured average CPU per execution before/after implementation
    /// (None until validation ran).
    measured_cpu_before: Option<f64>,
    measured_cpu_after: Option<f64>,
}

#[derive(Debug, Clone, PartialEq, serde::Serialize)]
struct ImpactedStatement {
    query_id: String,
    /// Share of the database's recent CPU the statement represents.
    recent_cpu_share_pct: f64,
}

/// A history row ("for every action implemented by the system, a history
/// view shows the state of such actions").
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct HistoryEntry {
    id: RecoId,
    action: String,
    final_state: String,
    implemented_at: Option<Timestamp>,
    note: String,
}

/// Read/write API over a control plane + managed database.
pub struct ManagementApi;

impl ManagementApi {
    // ------------------------------------------------------------------
    // Configuration (Figure 1)
    // ------------------------------------------------------------------

    pub fn get_settings(mdb: &ManagedDb) -> SettingsView {
        let (c, d) = crate::state::effective(mdb.settings, mdb.server);
        let show = |s: Setting| match s {
            Setting::On => "ON".to_string(),
            Setting::Off => "OFF".to_string(),
            Setting::InheritFromServer => "INHERIT".to_string(),
        };
        SettingsView {
            database: mdb.db.name.clone(),
            auto_create_desired: show(mdb.settings.auto_create),
            auto_drop_desired: show(mdb.settings.auto_drop),
            auto_create_effective: c,
            auto_drop_effective: d,
        }
    }

    // ------------------------------------------------------------------
    // Recommendations (Figures 2 & 3)
    // ------------------------------------------------------------------

    pub fn list_recommendations(
        plane: &ControlPlane,
        mdb: &ManagedDb,
    ) -> Vec<RecommendationSummary> {
        plane
            .store
            .for_database(&mdb.db.name)
            .filter(|r| r.state == RecoState::Active)
            .map(Self::summarize)
            .collect()
    }

    fn summarize(r: &crate::state::TrackedReco) -> RecommendationSummary {
        RecommendationSummary {
            id: r.id,
            action: r.recommendation.action.describe(),
            source: format!("{:?}", r.recommendation.source),
            state: format!("{:?}", r.state),
            estimated_improvement_pct: r.recommendation.estimated_improvement * 100.0,
            estimated_size_bytes: r.recommendation.estimated_size_bytes,
            created_at: r.created_at,
        }
    }

    pub fn recommendation_details(
        plane: &ControlPlane,
        mdb: &ManagedDb,
        id: RecoId,
    ) -> Option<RecommendationDetails> {
        let r = plane.store.get(id)?;
        if r.database != mdb.db.name {
            return None;
        }
        let now = mdb.db.clock().now();
        let qs = mdb.db.query_store();
        let day = sqlmini::clock::Duration::from_hours(24);
        let from = Timestamp(now.millis().saturating_sub(day.millis()));
        let total = qs.total_resources(Metric::CpuTime, from, now).max(1e-9);
        let impacted_statements = r
            .recommendation
            .impacted_queries
            .iter()
            .map(|q: &QueryId| ImpactedStatement {
                query_id: q.to_string(),
                recent_cpu_share_pct: qs.query_stats(*q, from, now).cpu.sum / total * 100.0,
            })
            .collect();
        // Measured before/after when implemented: compare a window before
        // implementation with one after.
        let (measured_cpu_before, measured_cpu_after) = match r.implemented_at {
            Some(at) if !r.recommendation.impacted_queries.is_empty() => {
                let before = (Timestamp(at.millis().saturating_sub(day.millis())), at);
                let after = (at, now);
                let mean_over = |w: (Timestamp, Timestamp)| {
                    let (sum, n) = r
                        .recommendation
                        .impacted_queries
                        .iter()
                        .map(|q| {
                            let a = qs.query_stats(*q, w.0, w.1);
                            (a.cpu.sum, a.cpu.count)
                        })
                        .fold((0.0, 0u64), |(s, c), (s2, c2)| (s + s2, c + c2));
                    if n == 0 {
                        None
                    } else {
                        Some(sum / n as f64)
                    }
                };
                (mean_over(before), mean_over(after))
            }
            _ => (None, None),
        };
        Some(RecommendationDetails {
            summary: Self::summarize(r),
            impacted_statements,
            history: r
                .history
                .iter()
                .map(|t| {
                    (
                        t.at,
                        format!("{:?}", t.from),
                        format!("{:?}", t.to),
                        t.note.clone(),
                    )
                })
                .collect(),
            measured_cpu_before,
            measured_cpu_after,
        })
    }

    /// The user clicks "apply" on one recommendation: implemented now and
    /// still validated by the system (§2).
    pub fn apply(plane: &mut ControlPlane, mdb: &mut ManagedDb, id: RecoId) -> bool {
        plane.apply_manually(mdb, id)
    }

    // ------------------------------------------------------------------
    // History
    // ------------------------------------------------------------------

    pub fn history(plane: &ControlPlane, mdb: &ManagedDb) -> Vec<HistoryEntry> {
        plane
            .store
            .for_database(&mdb.db.name)
            .filter(|r| r.state.is_terminal() || r.implemented_at.is_some())
            .map(|r| HistoryEntry {
                id: r.id,
                action: r.recommendation.action.describe(),
                final_state: format!("{:?}", r.state),
                implemented_at: r.implemented_at,
                note: r.history.last().map(|t| t.note.clone()).unwrap_or_default(),
            })
            .collect()
    }

    /// Export the recommendation SQL so the user can apply it through
    /// their own schema-management tooling (§2: "copy the details and
    /// apply the recommendation themselves").
    pub fn export_script(plane: &ControlPlane, mdb: &ManagedDb) -> String {
        let mut out = String::new();
        for r in plane.store.for_database(&mdb.db.name) {
            if r.state != RecoState::Active {
                continue;
            }
            match &r.recommendation.action {
                RecoAction::CreateIndex { def } => {
                    let keys: Vec<String> = def
                        .key_columns
                        .iter()
                        .map(|c| format!("c{}", c.0))
                        .collect();
                    let incl: Vec<String> = def
                        .included_columns
                        .iter()
                        .map(|c| format!("c{}", c.0))
                        .collect();
                    out.push_str(&format!(
                        "-- est. improvement {:.0}%, source {:?}\nCREATE INDEX {} ON T{} ({})",
                        r.recommendation.estimated_improvement * 100.0,
                        r.recommendation.source,
                        def.name,
                        def.table.0,
                        keys.join(", ")
                    ));
                    if !incl.is_empty() {
                        out.push_str(&format!(" INCLUDE ({})", incl.join(", ")));
                    }
                    out.push_str(";\n");
                }
                RecoAction::DropIndex { name, .. } => {
                    out.push_str(&format!("DROP INDEX {name};\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::PlanePolicy;
    use crate::state::{DbSettings, ServerSettings};
    use sqlmini::clock::{Duration, SimClock};
    use sqlmini::engine::{Database, DbConfig};
    use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
    use sqlmini::schema::{ColumnDef, ColumnId, TableDef};
    use sqlmini::types::{Value, ValueType};

    fn setup() -> (ControlPlane, ManagedDb, QueryTemplate) {
        let mut db = Database::new("apidb", DbConfig::default(), SimClock::new());
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
                    Value::Float((i % 900) as f64),
                ]
            }),
        );
        db.rebuild_stats(t);
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0), ColumnId(2)];
        let tpl = QueryTemplate::new(Statement::Select(q), 1);
        let mdb = ManagedDb::new(db, DbSettings::default(), ServerSettings::default());
        let plane = ControlPlane::new(PlanePolicy {
            analysis_interval: Duration::from_hours(4),
            validation_min_wait: Duration::from_hours(2),
            ..PlanePolicy::default()
        });
        (plane, mdb, tpl)
    }

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
    fn settings_view_reflects_inheritance() {
        let (_, mut mdb, _) = setup();
        let v = ManagementApi::get_settings(&mdb);
        assert_eq!(v.auto_create_desired, "INHERIT");
        assert!(!v.auto_create_effective, "server default is off");
        (mdb.server.auto_create, mdb.server.auto_drop) = (true, false);
        let v = ManagementApi::get_settings(&mdb);
        assert!(v.auto_create_effective);
        assert!(!v.auto_drop_effective);
        mdb.settings = DbSettings {
            auto_create: Setting::Off,
            auto_drop: Setting::On,
        };
        let v = ManagementApi::get_settings(&mdb);
        assert!(!v.auto_create_effective, "db-level OFF beats server ON");
        assert!(v.auto_drop_effective);
    }

    #[test]
    fn list_details_apply_history_flow() {
        let (mut plane, mut mdb, tpl) = setup();
        drive(&mut plane, &mut mdb, &tpl, 10);
        let list = ManagementApi::list_recommendations(&plane, &mdb);
        assert!(!list.is_empty(), "expected active recommendations");
        let id = list[0].id;
        assert!(list[0].action.starts_with("CREATE INDEX"));
        assert!(list[0].estimated_improvement_pct > 0.0);

        let details = ManagementApi::recommendation_details(&plane, &mdb, id).unwrap();
        assert_eq!(details.summary.id, id);
        assert!(details.measured_cpu_before.is_none(), "not yet implemented");

        // Export script mirrors the active list.
        let script = ManagementApi::export_script(&plane, &mdb);
        assert!(script.contains("CREATE INDEX"), "{script}");

        // Apply manually; keep the workload going so validation completes.
        assert!(ManagementApi::apply(&mut plane, &mut mdb, id));
        drive(&mut plane, &mut mdb, &tpl, 10);

        let hist = ManagementApi::history(&plane, &mdb);
        assert!(
            hist.iter()
                .any(|h| h.id == id && h.final_state == "Success"),
            "{hist:?}"
        );
    }

    #[test]
    fn details_scoped_to_database() {
        let (mut plane, mut mdb, tpl) = setup();
        drive(&mut plane, &mut mdb, &tpl, 10);
        let id = ManagementApi::list_recommendations(&plane, &mdb)[0].id;
        // A different database name can't read it.
        let (_, other, _) = setup();
        assert!(
            ManagementApi::recommendation_details(&plane, &other, id).is_none()
                || other.db.name == mdb.db.name
        );
    }
}
