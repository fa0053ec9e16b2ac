//! Database catalog: tables and index definitions.

use crate::schema::{IndexDef, IndexId, TableDef, TableId};
use std::collections::BTreeMap;

/// Errors raised by catalog mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    DuplicateTable(String),
    DuplicateIndexName(String),
    UnknownTable(TableId),
    UnknownIndex(IndexId),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::DuplicateTable(n) => write!(f, "table '{n}' already exists"),
            CatalogError::DuplicateIndexName(n) => write!(f, "index '{n}' already exists"),
            CatalogError::UnknownTable(t) => write!(f, "unknown table {t}"),
            CatalogError::UnknownIndex(i) => write!(f, "unknown index {i}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// The schema catalog of one database.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<TableId, TableDef>,
    indexes: BTreeMap<IndexId, IndexDef>,
    next_table: u32,
    next_index: u32,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table, assigning its id.
    pub fn add_table(&mut self, def: TableDef) -> Result<TableId, CatalogError> {
        if self.tables.values().any(|t| t.name == def.name) {
            return Err(CatalogError::DuplicateTable(def.name));
        }
        let id = TableId(self.next_table);
        self.next_table += 1;
        self.tables.insert(id, def);
        Ok(id)
    }

    pub fn table(&self, id: TableId) -> Result<&TableDef, CatalogError> {
        self.tables.get(&id).ok_or(CatalogError::UnknownTable(id))
    }

    pub fn table_by_name(&self, name: &str) -> Option<(TableId, &TableDef)> {
        self.tables
            .iter()
            .find(|(_, t)| t.name == name)
            .map(|(id, t)| (*id, t))
    }

    pub fn tables(&self) -> impl Iterator<Item = (TableId, &TableDef)> {
        self.tables.iter().map(|(id, t)| (*id, t))
    }

    /// Register an index, assigning its id. Rejects duplicate names
    /// (mirroring the paper's "index with the same name already exists"
    /// terminal error state).
    pub(crate) fn add_index(&mut self, def: IndexDef) -> Result<IndexId, CatalogError> {
        if !self.tables.contains_key(&def.table) {
            return Err(CatalogError::UnknownTable(def.table));
        }
        if self.indexes.values().any(|i| i.name == def.name) {
            return Err(CatalogError::DuplicateIndexName(def.name));
        }
        let id = IndexId(self.next_index);
        self.next_index += 1;
        self.indexes.insert(id, def);
        Ok(id)
    }

    #[cfg(test)]
    fn index(&self, id: IndexId) -> Result<&IndexDef, CatalogError> {
        self.indexes.get(&id).ok_or(CatalogError::UnknownIndex(id))
    }

    pub(crate) fn remove_index(&mut self, id: IndexId) -> Result<IndexDef, CatalogError> {
        self.indexes
            .remove(&id)
            .ok_or(CatalogError::UnknownIndex(id))
    }

    pub fn indexes(&self) -> impl Iterator<Item = (IndexId, &IndexDef)> {
        self.indexes.iter().map(|(id, i)| (*id, i))
    }

    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = (IndexId, &IndexDef)> {
        self.indexes
            .iter()
            .filter(move |(_, i)| i.table == table)
            .map(|(id, i)| (*id, i))
    }

    pub fn n_indexes(&self) -> usize {
        self.indexes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnId};
    use crate::types::ValueType;

    fn table(name: &str) -> TableDef {
        TableDef::new(
            name,
            vec![
                ColumnDef::new("a", ValueType::Int),
                ColumnDef::new("b", ValueType::Int),
            ],
        )
    }

    #[test]
    fn add_and_lookup_tables() {
        let mut c = Catalog::new();
        let t1 = c.add_table(table("t1")).unwrap();
        let t2 = c.add_table(table("t2")).unwrap();
        assert_ne!(t1, t2);
        assert_eq!(c.table(t1).unwrap().name, "t1");
        assert_eq!(c.table_by_name("t2").unwrap().0, t2);
        assert_eq!(c.tables().count(), 2);
        assert!(matches!(
            c.add_table(table("t1")),
            Err(CatalogError::DuplicateTable(_))
        ));
    }

    #[test]
    fn index_lifecycle() {
        let mut c = Catalog::new();
        let t = c.add_table(table("t")).unwrap();
        let ix = c
            .add_index(IndexDef::new("ix_a", t, vec![ColumnId(0)], vec![]))
            .unwrap();
        assert_eq!(c.index(ix).unwrap().name, "ix_a");
        assert_eq!(c.indexes_on(t).count(), 1);
        // Duplicate name rejected.
        assert!(matches!(
            c.add_index(IndexDef::new("ix_a", t, vec![ColumnId(1)], vec![])),
            Err(CatalogError::DuplicateIndexName(_))
        ));
        // Unknown table rejected.
        assert!(matches!(
            c.add_index(IndexDef::new(
                "ix_b",
                TableId(99),
                vec![ColumnId(0)],
                vec![]
            )),
            Err(CatalogError::UnknownTable(_))
        ));
        let removed = c.remove_index(ix).unwrap();
        assert_eq!(removed.name, "ix_a");
        assert!(c.index(ix).is_err());
        assert!(c.remove_index(ix).is_err());
    }

    #[test]
    fn index_ids_not_reused() {
        let mut c = Catalog::new();
        let t = c.add_table(table("t")).unwrap();
        let a = c
            .add_index(IndexDef::new("a", t, vec![ColumnId(0)], vec![]))
            .unwrap();
        c.remove_index(a).unwrap();
        let b = c
            .add_index(IndexDef::new("b", t, vec![ColumnId(0)], vec![]))
            .unwrap();
        assert_ne!(a, b, "index ids must be unique forever");
    }
}
