//! Plan rendering — the `EXPLAIN` surface.
//!
//! Renders a physical plan as an operator tree with the optimizer's
//! estimates, the form in which the portal shows users which statements
//! an index recommendation impacts (§2) and in which engineers debug
//! recommendation quality without seeing customer data (§5.3.3: plans
//! shapes are telemetry-safe; literals are not rendered).

use crate::catalog::Catalog;
use crate::plan::{Access, AggStrategy, JoinStrategy, Plan, SelectPlan};
use std::fmt::Write;

/// Render a plan as an indented operator tree.
pub fn explain(catalog: &Catalog, plan: &Plan) -> String {
    let mut out = String::new();
    match plan {
        Plan::Select(p) => explain_select(catalog, p, &mut out),
        Plan::Insert { est } => {
            let _ = writeln!(out, "Insert  (est. pages={:.0})", est.pages);
        }
        Plan::Update(p) => {
            let _ = writeln!(
                out,
                "Update  (est. rows={:.0}, cpu={:.0}us)",
                p.est.rows_out, p.est.cpu_us
            );
            render_access(catalog, &p.access, 1, &mut out, None);
        }
        Plan::Delete(p) => {
            let _ = writeln!(
                out,
                "Delete  (est. rows={:.0}, cpu={:.0}us)",
                p.est.rows_out, p.est.cpu_us
            );
            render_access(catalog, &p.access, 1, &mut out, None);
        }
    }
    out
}

fn explain_select(catalog: &Catalog, p: &SelectPlan, out: &mut String) {
    let _ = writeln!(
        out,
        "Select  (est. rows={:.0}, cpu={:.0}us, pages={:.0})",
        p.est.rows_out, p.est.cpu_us, p.est.pages
    );
    let mut depth = 1;
    if p.needs_sort {
        let _ = writeln!(out, "{}Sort", pad(depth));
        depth += 1;
    }
    match p.agg {
        AggStrategy::None => {}
        AggStrategy::Hash => {
            let _ = writeln!(out, "{}HashAggregate", pad(depth));
            depth += 1;
        }
        AggStrategy::Stream => {
            let _ = writeln!(out, "{}StreamAggregate  (order-riding)", pad(depth));
            depth += 1;
        }
    }
    if let Some(j) = &p.join {
        match &j.strategy {
            JoinStrategy::Hash { inner_access } => {
                let _ = writeln!(out, "{}HashJoin", pad(depth));
                render_access(catalog, &p.access, depth + 1, out, Some("outer"));
                render_access(catalog, inner_access, depth + 1, out, Some("inner/build"));
            }
            JoinStrategy::IndexNestedLoop {
                inner_index,
                covering,
            } => {
                let _ = writeln!(out, "{}IndexNestedLoopJoin", pad(depth));
                render_access(catalog, &p.access, depth + 1, out, Some("outer"));
                let cov = if *covering { ", covering" } else { ", +lookup" };
                let _ = writeln!(
                    out,
                    "{}IndexSeek [{}{}]  (inner, per outer row)",
                    pad(depth + 1),
                    inner_index.name(),
                    cov
                );
            }
        }
    } else {
        render_access(catalog, &p.access, depth, out, None);
    }
}

fn render_access(
    catalog: &Catalog,
    access: &Access,
    depth: usize,
    out: &mut String,
    role: Option<&str>,
) {
    let role_sfx = role.map(|r| format!("  ({r})")).unwrap_or_default();
    match access {
        Access::SeqScan => {
            let _ = writeln!(out, "{}SeqScan{role_sfx}", pad(depth));
        }
        Access::IndexSeek {
            index,
            eq,
            lo,
            hi,
            covering,
        } => {
            let mut details = format!("eq-prefix={}", eq.len());
            if lo.is_some() || hi.is_some() {
                details.push_str(", range");
            }
            if *covering {
                details.push_str(", covering");
            } else {
                details.push_str(", +lookup");
            }
            let _ = writeln!(
                out,
                "{}IndexSeek [{}] ({details}){role_sfx}",
                pad(depth),
                index.name()
            );
        }
        Access::IndexScan { index, covering } => {
            let cov = if *covering { "covering" } else { "+lookup" };
            let _ = writeln!(
                out,
                "{}IndexScan [{}] ({cov}, ordered){role_sfx}",
                pad(depth),
                index.name()
            );
        }
    }
    let _ = catalog;
}

fn pad(depth: usize) -> String {
    "  ".repeat(depth) + "-> "
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;
    use crate::optimizer::{optimize, IndexGeom, PlannerEnv};
    use crate::query::{CmpOp, Predicate, SelectQuery, Statement};
    use crate::schema::{ColumnDef, ColumnId, IndexDef, TableDef, TableId};
    use crate::stats::TableStats;
    use crate::types::{Value, ValueType};

    struct Env {
        t: TableDef,
        s: TableStats,
        geoms: Vec<IndexGeom>,
    }

    impl PlannerEnv for Env {
        fn table_def(&self, _t: TableId) -> &TableDef {
            &self.t
        }
        fn table_stats(&self, _t: TableId) -> &TableStats {
            &self.s
        }
        fn heap_pages(&self, _t: TableId) -> f64 {
            50.0
        }
        fn indexes_on(&self, _t: TableId) -> Vec<IndexGeom> {
            self.geoms.clone()
        }
    }

    fn env(with_index: bool) -> Env {
        let t = TableDef::new(
            "orders",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("c", ValueType::Int),
            ],
        );
        let mut heap = Heap::new(&t.types(), t.avg_row_width());
        for i in 0..5000i64 {
            heap.insert(vec![Value::Int(i), Value::Int(i % 100)]);
        }
        let s = TableStats::build_full(&heap);
        let mut geoms = vec![];
        if with_index {
            let def = IndexDef::new("ix_c", TableId(0), vec![ColumnId(1)], vec![ColumnId(0)]);
            let mut g = IndexGeom::hypothetical(def, &t, 5000.0);
            g.rref = crate::plan::IndexRef::Real {
                id: crate::schema::IndexId(0),
                name: "ix_c".into(),
            };
            geoms.push(g);
        }
        Env { t, s, geoms }
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(TableDef::new(
            "orders",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("c", ValueType::Int),
            ],
        ))
        .unwrap();
        c
    }

    #[test]
    fn seqscan_plan_renders() {
        let e = env(false);
        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::cmp(ColumnId(1), CmpOp::Eq, 7i64)];
        q.projection = vec![ColumnId(0)];
        let r = optimize(&e, &Statement::Select(q), &[]);
        let text = explain(&catalog(), &r.plan);
        assert!(text.contains("SeqScan"), "{text}");
        assert!(text.contains("est. rows="), "{text}");
    }

    #[test]
    fn seek_plan_renders_index_name_and_covering() {
        let e = env(true);
        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::cmp(ColumnId(1), CmpOp::Eq, 7i64)];
        q.projection = vec![ColumnId(0)];
        let r = optimize(&e, &Statement::Select(q), &[]);
        let text = explain(&catalog(), &r.plan);
        assert!(text.contains("IndexSeek [ix_c]"), "{text}");
        assert!(text.contains("covering"), "{text}");
    }

    #[test]
    fn no_literals_leak_into_explain() {
        let e = env(true);
        let mut q = SelectQuery::new(TableId(0));
        q.predicates = vec![Predicate::cmp(ColumnId(1), CmpOp::Eq, 424242i64)];
        q.projection = vec![ColumnId(0)];
        let r = optimize(&e, &Statement::Select(q), &[]);
        let text = explain(&catalog(), &r.plan);
        assert!(
            !text.contains("424242"),
            "literal leaked into telemetry-safe explain: {text}"
        );
    }

    #[test]
    fn dml_plans_render() {
        let e = env(true);
        let del = Statement::Delete {
            table: TableId(0),
            predicates: vec![Predicate::cmp(ColumnId(1), CmpOp::Eq, 7i64)],
        };
        let r = optimize(&e, &del, &[]);
        let text = explain(&catalog(), &r.plan);
        assert!(text.starts_with("Delete"), "{text}");
    }
}
