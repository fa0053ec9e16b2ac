//! Table and index schema definitions.

use crate::types::ValueType;
use std::fmt;

/// Identifier of a table within a database catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct TableId(pub u32);

/// Positional identifier of a column within its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct ColumnId(pub u32);

/// Identifier of an index within a database catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct IndexId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}
impl fmt::Display for ColumnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}
impl fmt::Display for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ix{}", self.0)
    }
}

/// Definition of a single column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub(crate) ty: ValueType,
    /// Whether NULLs are permitted. The generators use this; the executor
    /// does not enforce it (we are a simulator, not a validator).
    nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: ValueType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    pub fn nullable(mut self) -> ColumnDef {
        self.nullable = true;
        self
    }
}

/// Definition of a table: a name plus ordered columns. Row identity is the
/// implicit heap row id; an optional primary-key column index is recorded
/// for the generators and the clustered access path.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Column enforced unique & used as the clustered key, if any.
    pub primary_key: Option<ColumnId>,
}

impl TableDef {
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> TableDef {
        TableDef {
            name: name.into(),
            columns,
            primary_key: None,
        }
    }

    pub fn with_primary_key(mut self, col: ColumnId) -> TableDef {
        assert!((col.0 as usize) < self.columns.len(), "pk out of range");
        self.primary_key = Some(col);
        self
    }

    /// Look up a column id by name.
    pub(crate) fn column_id(&self, name: &str) -> Option<ColumnId> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|i| ColumnId(i as u32))
    }

    pub(crate) fn column(&self, id: ColumnId) -> &ColumnDef {
        &self.columns[id.0 as usize]
    }

    /// Each column's declared type, in order: what its heap stores.
    pub fn types(&self) -> Vec<ValueType> {
        self.columns.iter().map(|c| c.ty).collect()
    }

    /// Average row width in bytes (sum of column widths), used for page math.
    pub fn avg_row_width(&self) -> u64 {
        self.columns.iter().map(|c| c.ty.avg_width()).sum::<u64>() + 8 // row header
    }
}

/// How the auto-indexing service came to know about an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize)]
pub enum IndexOrigin {
    /// Created by the application / user (pre-existing).
    #[default]
    User,
    /// Created by the auto-indexing service.
    Auto,
    /// Enforces an application-specified constraint (unique, FK support).
    Constraint,
}

/// Definition of a non-clustered (secondary) B+ tree index: ordered key
/// columns plus included (leaf-only payload) columns, mirroring the shape
/// the paper's service manages.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize)]
pub struct IndexDef {
    pub name: String,
    pub table: TableId,
    /// Ordered key columns. Order matters: a seek needs an equality prefix.
    pub key_columns: Vec<ColumnId>,
    /// Included columns, available at the leaf for covering scans but not
    /// part of the sort order.
    pub included_columns: Vec<ColumnId>,
    pub origin: IndexOrigin,
    /// Referenced by a query hint or forced plan: must never be auto-dropped.
    pub hinted: bool,
}

impl IndexDef {
    pub fn new(
        name: impl Into<String>,
        table: TableId,
        key_columns: Vec<ColumnId>,
        included_columns: Vec<ColumnId>,
    ) -> IndexDef {
        let def = IndexDef {
            name: name.into(),
            table,
            key_columns,
            included_columns,
            origin: IndexOrigin::User,
            hinted: false,
        };
        assert!(!def.key_columns.is_empty(), "index needs at least one key");
        def
    }

    pub fn with_origin(mut self, origin: IndexOrigin) -> IndexDef {
        self.origin = origin;
        self
    }

    pub fn hinted(mut self) -> IndexDef {
        self.hinted = true;
        self
    }

    /// All columns available at the leaf (keys then includes).
    pub(crate) fn leaf_columns(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.key_columns
            .iter()
            .chain(self.included_columns.iter())
            .copied()
    }

    /// Whether this index's leaf contains every column in `needed`, i.e.
    /// whether a scan of this index covers the query without a lookup.
    pub fn covers(&self, needed: &[ColumnId]) -> bool {
        needed
            .iter()
            .all(|c| self.key_columns.contains(c) || self.included_columns.contains(c))
    }

    /// Two indexes are duplicates when their key columns are identical
    /// (including order) — the paper's drop-candidate notion of duplicate.
    pub fn duplicate_of(&self, other: &IndexDef) -> bool {
        self.table == other.table && self.key_columns == other.key_columns
    }
}

impl fmt::Display for IndexDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.key_columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")?;
        if !self.included_columns.is_empty() {
            write!(f, " INCLUDE (")?;
            for (i, c) in self.included_columns.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TableDef {
        TableDef::new(
            "orders",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("customer_id", ValueType::Int),
                ColumnDef::new("status", ValueType::Str),
                ColumnDef::new("total", ValueType::Float),
            ],
        )
        .with_primary_key(ColumnId(0))
    }

    #[test]
    fn column_lookup_by_name() {
        let t = t();
        assert_eq!(t.column_id("status"), Some(ColumnId(2)));
        assert_eq!(t.column_id("nope"), None);
    }

    #[test]
    fn covering_check() {
        let ix = IndexDef::new("ix1", TableId(0), vec![ColumnId(1)], vec![ColumnId(3)]);
        assert!(ix.covers(&[ColumnId(1), ColumnId(3)]));
        assert!(!ix.covers(&[ColumnId(1), ColumnId(2)]));
        assert!(ix.covers(&[]));
    }

    #[test]
    fn duplicate_detection_requires_same_key_order() {
        let a = IndexDef::new("a", TableId(0), vec![ColumnId(1), ColumnId(2)], vec![]);
        let b = IndexDef::new(
            "b",
            TableId(0),
            vec![ColumnId(1), ColumnId(2)],
            vec![ColumnId(3)],
        );
        let c = IndexDef::new("c", TableId(0), vec![ColumnId(2), ColumnId(1)], vec![]);
        assert!(a.duplicate_of(&b));
        assert!(!a.duplicate_of(&c));
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_key_panics() {
        let _ = IndexDef::new("bad", TableId(0), vec![], vec![]);
    }

    #[test]
    fn row_width_includes_header() {
        let t = t();
        assert_eq!(t.avg_row_width(), 8 + 8 + 24 + 8 + 8);
    }

    #[test]
    fn display_shape() {
        let ix = IndexDef::new("ix_o", TableId(0), vec![ColumnId(1)], vec![ColumnId(3)]);
        assert_eq!(format!("{ix}"), "ix_o(c1) INCLUDE (c3)");
    }
}
