//! The "User" tuning emulation of §7.3.
//!
//! To compare the automated recommenders against human administrators at
//! experiment scale, the paper emulates the user's tuning: identify the
//! `N` existing indexes providing the most benefit to queries (via
//! `dm_db_index_usage_stats` and Query Store), select a random subset of
//! `k` to drop, and treat performance without them as "before the user
//! tuned" and performance with them as the user's contribution
//! (paper parameters: N = 20, k = 5).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlmini::engine::Database;
use sqlmini::schema::{IndexDef, IndexId, IndexOrigin};

/// Rank existing user indexes by read benefit and pick `k` of the top `n`
/// at random. Constraint-enforcing indexes are excluded (the paper's
/// heuristic only considers indexes without application constraints).
pub(crate) fn select_user_tuning(
    db: &Database,
    n: usize,
    k: usize,
    seed: u64,
) -> Vec<(IndexId, IndexDef)> {
    let mut ranked: Vec<(IndexId, IndexDef, u64)> = db
        .catalog()
        .indexes()
        .filter(|(_, d)| d.origin == IndexOrigin::User)
        .map(|(id, d)| (id, d.clone(), db.usage_dmv().usage(id).reads()))
        .collect();
    ranked.sort_by_key(|(_, _, reads)| std::cmp::Reverse(*reads));
    ranked.truncate(n);
    // Random subset of k.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x55534552);
    let mut picked: Vec<(IndexId, IndexDef)> = Vec::new();
    let mut pool: Vec<(IndexId, IndexDef, u64)> = ranked;
    while picked.len() < k && !pool.is_empty() {
        let i = rng.random_range(0..pool.len());
        let (id, def, _) = pool.remove(i);
        picked.push((id, def));
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlmini::clock::SimClock;
    use sqlmini::engine::DbConfig;
    use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
    use sqlmini::schema::{ColumnDef, ColumnId, TableDef, TableId};
    use sqlmini::types::{Value, ValueType};

    fn db_with_indexes() -> (Database, TableId) {
        let mut db = Database::new("u", DbConfig::default(), SimClock::new());
        let t = db
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("a", ValueType::Int),
                    ColumnDef::new("b", ValueType::Int),
                    ColumnDef::new("c", ValueType::Int),
                ],
            ))
            .unwrap();
        db.load_rows(
            t,
            (0..5000i64).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 100),
                    Value::Int(i % 10),
                    Value::Int(i % 3),
                ]
            }),
        );
        db.rebuild_stats(t);
        (db, t)
    }

    #[test]
    fn picks_most_used_indexes() {
        let (mut db, t) = db_with_indexes();
        db.create_index(IndexDef::new(
            "hot",
            t,
            vec![ColumnId(1)],
            vec![ColumnId(0)],
        ))
        .unwrap();
        db.create_index(IndexDef::new("cold", t, vec![ColumnId(3)], vec![]))
            .unwrap();
        // Exercise only the hot index.
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::param(ColumnId(1), CmpOp::Eq, 0)];
        q.projection = vec![ColumnId(0)];
        let tpl = QueryTemplate::new(Statement::Select(q), 1);
        for i in 0..20 {
            db.execute(&tpl, &[Value::Int(i)]).unwrap();
        }
        let picked = select_user_tuning(&db, 1, 1, 0);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].1.name, "hot");
    }

    #[test]
    fn constraint_and_auto_indexes_excluded() {
        let (mut db, t) = db_with_indexes();
        db.create_index(
            IndexDef::new("cons", t, vec![ColumnId(1)], vec![])
                .with_origin(IndexOrigin::Constraint),
        )
        .unwrap();
        db.create_index(
            IndexDef::new("auto", t, vec![ColumnId(2)], vec![]).with_origin(IndexOrigin::Auto),
        )
        .unwrap();
        let picked = select_user_tuning(&db, 10, 10, 0);
        assert!(picked.is_empty(), "{picked:?}");
    }

    #[test]
    fn k_bounded_by_available() {
        let (mut db, t) = db_with_indexes();
        db.create_index(IndexDef::new("one", t, vec![ColumnId(1)], vec![]))
            .unwrap();
        db.create_index(IndexDef::new("two", t, vec![ColumnId(2)], vec![]))
            .unwrap();
        let picked = select_user_tuning(&db, 20, 5, 7);
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut db, t) = db_with_indexes();
        for c in [1u32, 2, 3] {
            db.create_index(IndexDef::new(
                format!("ix{c}"),
                t,
                vec![ColumnId(c)],
                vec![],
            ))
            .unwrap();
        }
        let a = select_user_tuning(&db, 3, 2, 11);
        let b = select_user_tuning(&db, 3, 2, 11);
        assert_eq!(
            a.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            b.iter().map(|(i, _)| *i).collect::<Vec<_>>()
        );
    }
}
