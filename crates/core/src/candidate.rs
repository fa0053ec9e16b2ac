//! Index candidates and recommendations.

use sqlmini::clock::Timestamp;
use sqlmini::dmv::MissingIndexKey;
use sqlmini::query::QueryId;
use sqlmini::schema::{ColumnId, IndexDef, IndexId, IndexOrigin, TableId};

/// Where a recommendation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum RecoSource {
    /// Missing-Indexes-based recommender (§5.2).
    MissingIndex,
    /// DTA-based recommender (§5.3).
    Dta,
    /// Drop analysis (§5.4).
    DropAnalysis,
}

/// An index candidate under consideration: ordered key columns + includes
/// on one table, with an accumulated benefit estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexCandidate {
    pub table: TableId,
    pub key_columns: Vec<ColumnId>,
    pub included_columns: Vec<ColumnId>,
    /// Estimated total optimizer cost saved (impact score units).
    pub benefit: f64,
    /// Estimated average improvement percentage on impacted queries.
    pub avg_impact_pct: f64,
    /// Number of optimizations/queries that wanted this index.
    pub demand: u64,
    /// Queries known to be impacted (when known).
    pub impacted_queries: Vec<QueryId>,
}

impl IndexCandidate {
    /// Build a candidate from an MI DMV key (§5.2's first step): equality
    /// columns become keys; **one** inequality column is appended to the
    /// key (the storage engine can only seek one range); the remaining
    /// inequality columns and the include columns become INCLUDEs.
    pub(crate) fn from_missing_index_key(key: &MissingIndexKey) -> IndexCandidate {
        let mut key_columns = key.equality_columns.clone();
        let mut included: Vec<ColumnId> = Vec::new();
        let mut ineq = key.inequality_columns.iter();
        if let Some(&first) = ineq.next() {
            key_columns.push(first);
        }
        included.extend(ineq.copied());
        included.extend(
            key.include_columns
                .iter()
                .filter(|c| !key_columns.contains(c))
                .copied(),
        );
        included.retain(|c| !key_columns.contains(c));
        included.sort_unstable();
        included.dedup();
        IndexCandidate {
            table: key.table,
            key_columns,
            included_columns: included,
            benefit: 0.0,
            avg_impact_pct: 0.0,
            demand: 0,
            impacted_queries: Vec::new(),
        }
    }

    /// Deterministic, human-recognizable name following the service's
    /// naming scheme for auto-created indexes.
    fn index_name(&self) -> String {
        let keys: Vec<String> = self
            .key_columns
            .iter()
            .map(|c| format!("c{}", c.0))
            .collect();
        format!("auto_ix_t{}_{}", self.table.0, keys.join("_"))
    }

    /// Materialize as an [`IndexDef`] with [`IndexOrigin::Auto`].
    pub fn to_index_def(&self) -> IndexDef {
        IndexDef::new(
            self.index_name(),
            self.table,
            self.key_columns.clone(),
            self.included_columns.clone(),
        )
        .with_origin(IndexOrigin::Auto)
    }

    /// Whether an existing index already serves this candidate: its keys
    /// must be a prefix-or-equal of the existing keys and the existing
    /// leaf must cover the candidate's includes.
    pub fn served_by(&self, existing: &IndexDef) -> bool {
        if existing.table != self.table {
            return false;
        }
        let prefix_ok = self.key_columns.len() <= existing.key_columns.len()
            && existing.key_columns[..self.key_columns.len()] == self.key_columns[..];
        prefix_ok
            && self
                .included_columns
                .iter()
                .all(|c| existing.key_columns.contains(c) || existing.included_columns.contains(c))
    }
}

/// The action a recommendation proposes.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub enum RecoAction {
    CreateIndex { def: IndexDef },
    DropIndex { index: IndexId, name: String },
}

impl RecoAction {
    pub fn describe(&self) -> String {
        match self {
            RecoAction::CreateIndex { def } => format!("CREATE INDEX {def}"),
            RecoAction::DropIndex { name, .. } => format!("DROP INDEX {name}"),
        }
    }
}

/// One recommendation emitted by a recommender.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Recommendation {
    pub action: RecoAction,
    pub source: RecoSource,
    /// Estimated benefit in optimizer cost units (impact score).
    pub estimated_benefit: f64,
    /// Estimated improvement fraction (0–1) over impacted statements.
    pub estimated_improvement: f64,
    /// Estimated index size in bytes (creates only).
    pub estimated_size_bytes: u64,
    pub impacted_queries: Vec<QueryId>,
    pub generated_at: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(eq: Vec<u32>, ineq: Vec<u32>, incl: Vec<u32>) -> MissingIndexKey {
        MissingIndexKey {
            table: TableId(1),
            equality_columns: eq.into_iter().map(ColumnId).collect(),
            inequality_columns: ineq.into_iter().map(ColumnId).collect(),
            include_columns: incl.into_iter().map(ColumnId).collect(),
        }
    }

    #[test]
    fn candidate_from_mi_key_takes_one_inequality() {
        let c = IndexCandidate::from_missing_index_key(&key(vec![1, 2], vec![3, 4], vec![5]));
        assert_eq!(
            c.key_columns,
            vec![ColumnId(1), ColumnId(2), ColumnId(3)],
            "eq cols then first ineq col"
        );
        assert_eq!(c.included_columns, vec![ColumnId(4), ColumnId(5)]);
    }

    #[test]
    fn candidate_no_inequality() {
        let c = IndexCandidate::from_missing_index_key(&key(vec![2], vec![], vec![0, 3]));
        assert_eq!(c.key_columns, vec![ColumnId(2)]);
        assert_eq!(c.included_columns, vec![ColumnId(0), ColumnId(3)]);
    }

    #[test]
    fn include_overlap_with_keys_removed() {
        let c = IndexCandidate::from_missing_index_key(&key(vec![1], vec![2], vec![1, 2, 3]));
        assert_eq!(c.key_columns, vec![ColumnId(1), ColumnId(2)]);
        assert_eq!(c.included_columns, vec![ColumnId(3)]);
    }

    #[test]
    fn name_is_deterministic() {
        let c = IndexCandidate::from_missing_index_key(&key(vec![1, 2], vec![], vec![]));
        assert_eq!(c.index_name(), "auto_ix_t1_c1_c2");
        let def = c.to_index_def();
        assert_eq!(def.origin, IndexOrigin::Auto);
    }

    #[test]
    fn served_by_prefix_and_covering() {
        let c = IndexCandidate::from_missing_index_key(&key(vec![1], vec![], vec![3]));
        let wide = IndexDef::new(
            "w",
            TableId(1),
            vec![ColumnId(1), ColumnId(2)],
            vec![ColumnId(3)],
        );
        assert!(c.served_by(&wide));
        let wrong_order = IndexDef::new("x", TableId(1), vec![ColumnId(2), ColumnId(1)], vec![]);
        assert!(!c.served_by(&wrong_order));
        let no_include = IndexDef::new("y", TableId(1), vec![ColumnId(1)], vec![]);
        assert!(!c.served_by(&no_include));
        let other_table = IndexDef::new("z", TableId(2), vec![ColumnId(1)], vec![ColumnId(3)]);
        assert!(!c.served_by(&other_table));
    }
}
