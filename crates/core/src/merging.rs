//! Index merging (§5.2, step five; Chaudhuri & Narasayya, ICDE'99 \[12\]).
//!
//! To serve multiple queries with fewer indexes, candidates whose key
//! columns are a **prefix** of another candidate's keys (but whose include
//! sets differ) are merged conservatively: the merged index takes the
//! longer key and the union of the include sets. A merge is kept only if
//! it improves the aggregate benefit (accounting for the merged index's
//! larger size reducing its per-query efficiency slightly).

use crate::candidate::IndexCandidate;

/// Penalty factor applied to the combined benefit of a merged index per
/// extra include column, modeling the wider leaf rows.
const WIDTH_PENALTY_PER_INCLUDE: f64 = 0.02;

/// Whether `a` can merge into `b`: same table, `a`'s keys are a prefix of
/// `b`'s keys (or equal).
fn can_merge(a: &IndexCandidate, b: &IndexCandidate) -> bool {
    a.table == b.table
        && a.key_columns.len() <= b.key_columns.len()
        && b.key_columns[..a.key_columns.len()] == a.key_columns[..]
}

/// Merge `a` into `b`, producing the combined candidate.
fn merge(a: &IndexCandidate, b: &IndexCandidate) -> IndexCandidate {
    debug_assert!(can_merge(a, b));
    let mut included = b.included_columns.clone();
    for c in &a.included_columns {
        if !included.contains(c) && !b.key_columns.contains(c) {
            included.push(*c);
        }
    }
    included.sort_unstable();
    included.dedup();
    let extra = included
        .len()
        .saturating_sub(b.included_columns.len().max(a.included_columns.len()));
    let penalty = 1.0 - WIDTH_PENALTY_PER_INCLUDE * extra as f64;
    let mut queries = a.impacted_queries.clone();
    for q in &b.impacted_queries {
        if !queries.contains(q) {
            queries.push(*q);
        }
    }
    IndexCandidate {
        table: b.table,
        key_columns: b.key_columns.clone(),
        included_columns: included,
        benefit: (a.benefit + b.benefit) * penalty.max(0.5),
        avg_impact_pct: (a.avg_impact_pct * a.demand as f64 + b.avg_impact_pct * b.demand as f64)
            / (a.demand + b.demand).max(1) as f64,
        demand: a.demand + b.demand,
        impacted_queries: queries,
    }
}

/// Conservatively merge a candidate set: repeatedly merge the pair with
/// the greatest combined benefit whenever the merge's benefit exceeds the
/// better of keeping them separate (i.e. it improves the aggregate given
/// one index budget slot saved). Terminates when no profitable merge
/// remains.
pub fn merge_candidates(mut cands: Vec<IndexCandidate>) -> Vec<IndexCandidate> {
    loop {
        let mut best: Option<(usize, usize, IndexCandidate)> = None;
        for i in 0..cands.len() {
            for j in 0..cands.len() {
                if i == j {
                    continue;
                }
                if can_merge(&cands[i], &cands[j]) {
                    let m = merge(&cands[i], &cands[j]);
                    // Profitable if the merged benefit beats the larger of
                    // the two (we free a slot and keep most of both).
                    if m.benefit >= cands[i].benefit.max(cands[j].benefit)
                        && best.as_ref().is_none_or(|(_, _, b)| m.benefit > b.benefit)
                    {
                        best = Some((i, j, m));
                    }
                }
            }
        }
        match best {
            None => return cands,
            Some((i, j, m)) => {
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                cands.remove(hi);
                cands.remove(lo);
                cands.push(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlmini::schema::{ColumnId, TableId};

    fn cand(table: u32, keys: Vec<u32>, incl: Vec<u32>, benefit: f64) -> IndexCandidate {
        IndexCandidate {
            table: TableId(table),
            key_columns: keys.into_iter().map(ColumnId).collect(),
            included_columns: incl.into_iter().map(ColumnId).collect(),
            benefit,
            avg_impact_pct: 50.0,
            demand: 10,
            impacted_queries: vec![],
        }
    }

    #[test]
    fn prefix_merge_allowed() {
        let a = cand(0, vec![1], vec![5], 100.0);
        let b = cand(0, vec![1, 2], vec![6], 80.0);
        assert!(can_merge(&a, &b));
        assert!(!can_merge(&b, &a));
        let m = merge(&a, &b);
        assert_eq!(m.key_columns, vec![ColumnId(1), ColumnId(2)]);
        assert_eq!(m.included_columns, vec![ColumnId(5), ColumnId(6)]);
        assert!(m.benefit > 100.0 && m.benefit <= 180.0);
        assert_eq!(m.demand, 20);
    }

    #[test]
    fn different_tables_never_merge() {
        let a = cand(0, vec![1], vec![], 1.0);
        let b = cand(1, vec![1, 2], vec![], 1.0);
        assert!(!can_merge(&a, &b));
    }

    #[test]
    fn non_prefix_never_merges() {
        let a = cand(0, vec![2], vec![], 1.0);
        let b = cand(0, vec![1, 2], vec![], 1.0);
        assert!(!can_merge(&a, &b));
    }

    #[test]
    fn equal_keys_merge_includes() {
        let a = cand(0, vec![1], vec![3], 50.0);
        let b = cand(0, vec![1], vec![4], 60.0);
        let out = merge_candidates(vec![a, b]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].included_columns, vec![ColumnId(3), ColumnId(4)]);
        assert!(out[0].benefit > 60.0);
    }

    #[test]
    fn merge_candidates_chains() {
        let out = merge_candidates(vec![
            cand(0, vec![1], vec![7], 40.0),
            cand(0, vec![1, 2], vec![8], 40.0),
            cand(0, vec![1, 2, 3], vec![9], 40.0),
            cand(1, vec![1], vec![], 40.0), // other table untouched
        ]);
        assert_eq!(out.len(), 2);
        let merged = out.iter().find(|c| c.table == TableId(0)).unwrap();
        assert_eq!(
            merged.key_columns,
            vec![ColumnId(1), ColumnId(2), ColumnId(3)]
        );
        assert!(merged
            .included_columns
            .iter()
            .all(|c| [7, 8, 9].contains(&c.0)));
    }

    #[test]
    fn key_column_not_duplicated_as_include() {
        let a = cand(0, vec![1], vec![2], 50.0);
        let b = cand(0, vec![1, 2], vec![], 50.0);
        let m = merge(&a, &b);
        assert!(
            !m.included_columns.contains(&ColumnId(2)),
            "col 2 is already a key of the merged index"
        );
    }

    #[test]
    fn no_merge_when_nothing_compatible() {
        let cands = vec![
            cand(0, vec![1], vec![], 10.0),
            cand(0, vec![2], vec![], 10.0),
            cand(0, vec![3], vec![], 10.0),
        ];
        let out = merge_candidates(cands.clone());
        assert_eq!(out.len(), 3);
    }
}
