//! B-instances (§7.1): best-effort clones for experimentation in
//! production without touching the primary.
//!
//! A B-instance is a fork of the primary (A-instance): a snapshot with
//! its own noise seed (a different physical server). Its callers replay a
//! fork of the primary's traffic onto it with `workload::replay`, which
//! may drop or reorder operations, so the clone can diverge; divergence
//! is measured by [`divergence_between`] and reported, never "fixed",
//! because the B-instance is disposable by design.

use sqlmini::engine::Database;

/// Per-table divergence between A and B.
#[derive(Debug, Clone, PartialEq)]
struct TableDivergence {
    table: sqlmini::schema::TableId,
    a_rows: u64,
    b_rows: u64,
}

/// Divergence report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DivergenceReport {
    tables: Vec<TableDivergence>,
}

impl DivergenceReport {
    /// Maximum relative row-count divergence across tables.
    ///
    /// Divergence is relative to the A-instance: `|a - b| / a`. An empty
    /// A-table with rows on B is total divergence (`+inf`), not the
    /// `|a - b| / 1` a clamped denominator would report; two empty tables
    /// agree exactly (`0.0`), as does an empty report.
    pub fn max_relative(&self) -> f64 {
        self.tables
            .iter()
            .map(|t| {
                if t.a_rows == 0 {
                    if t.b_rows == 0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (t.a_rows as f64 - t.b_rows as f64).abs() / t.a_rows as f64
                }
            })
            .fold(0.0, f64::max)
    }

    /// Whether divergence exceeds the tolerance (experiments on a
    /// too-diverged clone are discarded).
    #[cfg(test)]
    fn excessive(&self, tolerance: f64) -> bool {
        self.max_relative() > tolerance
    }
}

/// Create a B-instance from a primary: snapshot + independent noise seed
/// (the different physical server), named `<primary>::B<seed>`.
pub fn create_b_instance(primary: &Database, seed: u64) -> Database {
    primary.fork(format!("{}::B{seed:04x}", primary.name), seed)
}

/// Per-table divergence between two databases sharing a catalog lineage
/// (tables are enumerated from `a`, the reference instance).
pub fn divergence_between(a: &Database, b: &Database) -> DivergenceReport {
    let mut tables = Vec::new();
    for (t, _) in a.catalog().tables() {
        tables.push(TableDivergence {
            table: t,
            a_rows: a.table_rows(t),
            b_rows: b.table_rows(t),
        });
    }
    DivergenceReport { tables }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlmini::clock::Duration;
    use sqlmini::engine::ServiceTier;
    use workload::{generate_tenant, replay, ReplayFidelity, TenantConfig};

    fn tenant() -> workload::Tenant {
        let mut cfg = TenantConfig::new("prod", 9, ServiceTier::Standard);
        cfg.schema.min_tables = 2;
        cfg.schema.max_tables = 2;
        cfg.schema.min_rows = 1_000;
        cfg.schema.max_rows = 2_000;
        cfg.workload.base_rate_per_hour = 150.0;
        generate_tenant(&cfg)
    }

    #[test]
    fn b_instance_starts_identical() {
        let t = tenant();
        let b = create_b_instance(&t.db, 77);
        let d = divergence_between(&t.db, &b);
        assert_eq!(d.max_relative(), 0.0);
        assert!(!d.excessive(0.01));
        assert_eq!(b.name, "prod::B004d");
    }

    #[test]
    fn replay_tracks_drops_and_divergence_stays_bounded() {
        let mut t = tenant();
        let (_, trace) = t
            .runner
            .run_traced(&mut t.db, &t.model, Duration::from_hours(6));
        let mut b = create_b_instance(&t.db, 1);
        // B is created *after* the traced run in this test, so replaying
        // the same trace doubles B's writes relative to A — that is
        // exactly the kind of divergence the report must expose.
        let s = replay(&mut b, &t.model, &trace, ReplayFidelity::default());
        assert!(s.replayed > 0);
        let d = divergence_between(&t.db, &b);
        // Read-heavy workload: divergence from duplicated writes exists
        // but is a small fraction of table sizes.
        assert!(d.max_relative() < 0.6, "{d:?}");
    }

    #[test]
    fn experiments_on_b_never_touch_a() {
        let t = tenant();
        let mut b = create_b_instance(&t.db, 2);
        let n_before = t.db.catalog().n_indexes();
        // Create an index on B only.
        let (tid, _) = t.db.catalog().tables().next().unwrap();
        let def = sqlmini::schema::IndexDef::new(
            "exp_ix",
            tid,
            vec![sqlmini::schema::ColumnId(1)],
            vec![],
        );
        b.create_index(def).unwrap();
        assert_eq!(t.db.catalog().n_indexes(), n_before);
        assert_eq!(b.catalog().n_indexes(), n_before + 1);
    }

    #[test]
    fn empty_report_has_zero_divergence() {
        let d = DivergenceReport::default();
        assert_eq!(d.max_relative(), 0.0);
        // Even a zero tolerance is not exceeded by an empty report.
        assert!(!d.excessive(0.0));
    }

    #[test]
    fn empty_a_table_with_b_rows_is_total_divergence() {
        // Previously the denominator was clamped with `max(1)`, so an
        // empty A-table with one B row reported divergence 1.0 — under
        // a tolerance of e.g. 2.0 that understated real divergence.
        let d = DivergenceReport {
            tables: vec![TableDivergence {
                table: sqlmini::schema::TableId(1),
                a_rows: 0,
                b_rows: 1,
            }],
        };
        assert_eq!(d.max_relative(), f64::INFINITY);
        assert!(d.excessive(1e18), "any finite tolerance is exceeded");
    }

    #[test]
    fn both_empty_tables_agree_exactly() {
        let d = DivergenceReport {
            tables: vec![TableDivergence {
                table: sqlmini::schema::TableId(1),
                a_rows: 0,
                b_rows: 0,
            }],
        };
        assert_eq!(d.max_relative(), 0.0);
        assert!(!d.excessive(0.0));
    }

    #[test]
    fn tolerance_boundary_is_strict() {
        // |100 - 125| / 100 = 0.25 exactly: equal-to-tolerance is NOT
        // excessive (strict `>`), pinning the boundary semantics.
        let d = DivergenceReport {
            tables: vec![TableDivergence {
                table: sqlmini::schema::TableId(1),
                a_rows: 100,
                b_rows: 125,
            }],
        };
        assert_eq!(d.max_relative(), 0.25);
        assert!(!d.excessive(0.25));
        assert!(d.excessive(0.2499));
    }

    #[test]
    fn excessive_divergence_detected() {
        let t = tenant();
        let mut b = create_b_instance(&t.db, 3);
        // Artificially diverge B: delete most rows of the first table.
        let (tid, _) = b.catalog().tables().next().unwrap();
        let tpl = sqlmini::query::QueryTemplate::new(
            sqlmini::query::Statement::Delete {
                table: tid,
                predicates: vec![],
            },
            0,
        );
        b.execute(&tpl, &[]).unwrap();
        let d = divergence_between(&t.db, &b);
        assert!(d.excessive(0.5), "{d:?}");
    }
}
