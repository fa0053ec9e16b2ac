//! Secondary (non-clustered) B+ tree indexes over a heap table.
//!
//! An index entry's key is the composite of the index's key-column values
//! plus the row id (making every entry unique even under duplicate key
//! values, as SQL Server does with its row locator). The entry payload is
//! the included-column values, so covering scans never touch the heap.

use crate::btree::BTree;
use crate::heap::{Heap, RowId, PAGE_SIZE};
use crate::schema::{ColumnId, IndexDef, TableDef};
use crate::types::{Row, Value};
use std::ops::Bound;

/// Composite index key: key-column values in index order, then the row id.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexKey {
    pub vals: Vec<Value>,
    pub rid: RowId,
}

/// One qualifying index entry returned by a seek or scan.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    pub rid: RowId,
    /// Key-column values (index order).
    pub key_vals: Vec<Value>,
    /// Included-column values (definition order).
    pub included_vals: Vec<Value>,
}

impl IndexEntry {
    /// Value of `col` if it is available at the leaf of index `def`.
    pub fn leaf_value(&self, def: &IndexDef, col: ColumnId) -> Option<&Value> {
        if let Some(i) = def.key_columns.iter().position(|&c| c == col) {
            return Some(&self.key_vals[i]);
        }
        if let Some(i) = def.included_columns.iter().position(|&c| c == col) {
            return Some(&self.included_vals[i]);
        }
        None
    }
}

/// Bound on the first non-equality key column of a seek.
#[derive(Debug, Clone, PartialEq)]
pub enum ColBound {
    Unbounded,
    Included(Value),
    Excluded(Value),
}

/// A materialized secondary index.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    pub def: IndexDef,
    tree: BTree<IndexKey, Vec<Value>>,
    /// Bytes per entry, fixing page geometry.
    entry_width: u64,
}

/// Result of a seek/scan: qualifying entries plus the logical pages visited.
#[derive(Debug, Clone)]
pub struct SeekResult {
    pub entries: Vec<IndexEntry>,
    pub pages_visited: u64,
}

impl SecondaryIndex {
    /// Create an empty index with page geometry derived from the schema.
    pub fn new(def: IndexDef, table: &TableDef) -> SecondaryIndex {
        let entry_width: u64 = def
            .key_columns
            .iter()
            .chain(def.included_columns.iter())
            .map(|&c| table.column(c).ty.avg_width())
            .sum::<u64>()
            + 8; // row locator
        let fanout = (PAGE_SIZE / entry_width).clamp(8, 512) as usize;
        SecondaryIndex {
            def,
            tree: BTree::new(fanout),
            entry_width,
        }
    }

    /// Build the index from an existing heap. Returns the number of heap
    /// pages scanned (the IO cost of the build's scan phase).
    pub fn build(&mut self, heap: &Heap) -> u64 {
        for (rid, row) in heap.scan_quiet() {
            self.insert_row(rid, row);
        }
        heap.page_count()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Estimated on-disk size in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.tree.node_count() as u64).max(1) * PAGE_SIZE
    }

    /// Estimated size for `rows` entries without building (planner use).
    pub fn estimate_size_bytes(def: &IndexDef, table: &TableDef, rows: u64) -> u64 {
        let entry_width: u64 = def
            .key_columns
            .iter()
            .chain(def.included_columns.iter())
            .map(|&c| table.column(c).ty.avg_width())
            .sum::<u64>()
            + 8;
        let per_page = (PAGE_SIZE / entry_width).clamp(8, 512);
        // ~69% fill factor for a tree built by random inserts, plus the
        // internal levels (~1/fanout overhead).
        let leaf_pages = (rows as f64 / (per_page as f64 * 0.69)).ceil() as u64 + 1;
        (leaf_pages + leaf_pages / per_page + 1) * PAGE_SIZE
    }

    pub fn height(&self) -> usize {
        self.tree.height()
    }

    fn key_for(&self, rid: RowId, row: &Row) -> IndexKey {
        IndexKey {
            vals: self
                .def
                .key_columns
                .iter()
                .map(|&c| row[c.0 as usize].clone())
                .collect(),
            rid,
        }
    }

    fn payload_for(&self, row: &Row) -> Vec<Value> {
        self.def
            .included_columns
            .iter()
            .map(|&c| row[c.0 as usize].clone())
            .collect()
    }

    /// Index maintenance: reflect a newly inserted heap row. Returns pages
    /// written (tree nodes touched).
    pub fn insert_row(&mut self, rid: RowId, row: &Row) -> u64 {
        let before = self.tree.write_visits();
        let key = self.key_for(rid, row);
        let payload = self.payload_for(row);
        self.tree.insert(key, payload);
        self.tree.write_visits() - before
    }

    /// Index maintenance: reflect a deleted heap row.
    pub fn delete_row(&mut self, rid: RowId, row: &Row) -> u64 {
        let before = self.tree.write_visits();
        let key = self.key_for(rid, row);
        self.tree.remove(&key);
        self.tree.write_visits() - before
    }

    /// Index maintenance: reflect an updated heap row. No-op (zero pages)
    /// when no indexed column changed.
    pub fn update_row(&mut self, rid: RowId, old: &Row, new: &Row) -> u64 {
        let touched = self
            .def
            .leaf_columns()
            .any(|c| old[c.0 as usize] != new[c.0 as usize]);
        if !touched {
            return 0;
        }
        self.delete_row(rid, old) + self.insert_row(rid, new)
    }

    /// Seek with an equality prefix on the leading key columns and an
    /// optional range on the next key column.
    ///
    /// This mirrors the storage-engine capability the paper describes: a
    /// B+ tree seek supports multiple equality predicates but only one
    /// inequality (on the column ordered right after the equalities).
    pub fn seek(&self, eq_prefix: &[Value], lo: ColBound, hi: ColBound) -> SeekResult {
        let mut entries = Vec::new();
        let (_, pages_visited) = self.seek_visit(eq_prefix, lo, hi, |rid, key_vals, included| {
            entries.push(IndexEntry {
                rid,
                key_vals: key_vals.to_vec(),
                included_vals: included.to_vec(),
            });
        });
        SeekResult {
            entries,
            pages_visited,
        }
    }

    /// Seek without materializing owned [`IndexEntry`]s: `f` is called
    /// once per qualifying entry, in key order, with the entry's row id
    /// and *borrowed* key / included values. The slices borrow from the
    /// index, not from the visit, so a caller may keep them after the
    /// seek returns (the executor's covering row views do). Returns
    /// `(entries_visited, pages_visited)`.
    ///
    /// This is the executor's hot path — the per-entry `Vec` clones of
    /// [`seek`] dominated control-pass allocation, and most callers only
    /// need a subset of the values (or just the row ids).
    pub fn seek_visit<'a, F: FnMut(RowId, &'a [Value], &'a [Value])>(
        &'a self,
        eq_prefix: &[Value],
        lo: ColBound,
        hi: ColBound,
        mut f: F,
    ) -> (u64, u64) {
        assert!(
            eq_prefix.len() <= self.def.key_columns.len(),
            "equality prefix longer than key"
        );
        let has_range = !matches!((&lo, &hi), (ColBound::Unbounded, ColBound::Unbounded));
        assert!(
            !has_range || eq_prefix.len() < self.def.key_columns.len(),
            "range column beyond key columns"
        );
        let reads_before = self.tree.read_visits();

        // Lower composite bound.
        let lo_key = {
            let mut vals = eq_prefix.to_vec();
            match &lo {
                ColBound::Included(v) | ColBound::Excluded(v) => vals.push(v.clone()),
                ColBound::Unbounded => {}
            }
            IndexKey {
                vals,
                rid: RowId(0),
            }
        };
        let lo_excl_val = match &lo {
            ColBound::Excluded(v) => Some(v),
            _ => None,
        };

        let prefix_len = eq_prefix.len();
        let range_idx = prefix_len; // position of the range column, if any
        let mut visited = 0u64;
        for (key, payload) in self.tree.range(Bound::Included(&lo_key), Bound::Unbounded) {
            // Stop once the equality prefix no longer matches.
            if key.vals[..prefix_len] != eq_prefix[..] {
                break;
            }
            if let Some(ex) = lo_excl_val {
                if &key.vals[range_idx] == ex {
                    continue;
                }
            }
            match &hi {
                ColBound::Included(v) => {
                    if key.vals[range_idx] > *v {
                        break;
                    }
                }
                ColBound::Excluded(v) => {
                    if key.vals[range_idx] >= *v {
                        break;
                    }
                }
                ColBound::Unbounded => {}
            }
            visited += 1;
            f(key.rid, &key.vals, payload);
        }
        // Convert node visits into page visits; at least the descent.
        let pages_visited = (self.tree.read_visits() - reads_before).max(self.tree.height() as u64);
        (visited, pages_visited)
    }

    /// Full scan of the index in key order (an ordered covering scan).
    pub fn scan_all(&self) -> SeekResult {
        self.seek(&[], ColBound::Unbounded, ColBound::Unbounded)
    }

    /// Visitor form of [`scan_all`], mirroring [`seek_visit`].
    pub fn scan_visit<'a, F: FnMut(RowId, &'a [Value], &'a [Value])>(&'a self, f: F) -> (u64, u64) {
        self.seek_visit(&[], ColBound::Unbounded, ColBound::Unbounded, f)
    }

    /// Leaf pages the index occupies (for scan costing).
    pub fn leaf_pages(&self) -> u64 {
        let per_page = (PAGE_SIZE / self.entry_width).clamp(8, 512);
        (self.tree.len() as u64).div_ceil(per_page).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableId};
    use crate::types::ValueType;

    fn table() -> TableDef {
        TableDef::new(
            "orders",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("customer_id", ValueType::Int),
                ColumnDef::new("status", ValueType::Str),
                ColumnDef::new("total", ValueType::Float),
            ],
        )
    }

    fn row(id: i64, cust: i64, status: &str, total: f64) -> Row {
        vec![
            Value::Int(id),
            Value::Int(cust),
            Value::Str(status.into()),
            Value::Float(total),
        ]
    }

    fn populated() -> (Heap, SecondaryIndex) {
        let t = table();
        let mut heap = Heap::new(t.avg_row_width());
        for i in 0..1000i64 {
            heap.insert(row(
                i,
                i % 50,
                if i % 3 == 0 { "open" } else { "done" },
                i as f64,
            ));
        }
        let def = IndexDef::new(
            "ix_cust_total",
            TableId(0),
            vec![ColumnId(1), ColumnId(3)],
            vec![ColumnId(2)],
        );
        let mut ix = SecondaryIndex::new(def, &t);
        ix.build(&heap);
        (heap, ix)
    }

    #[test]
    fn build_indexes_all_rows() {
        let (heap, ix) = populated();
        assert_eq!(ix.len(), heap.len());
    }

    #[test]
    fn equality_seek() {
        let (_, ix) = populated();
        let r = ix.seek(&[Value::Int(7)], ColBound::Unbounded, ColBound::Unbounded);
        // customers 0..50, 1000 rows round-robin => 20 rows per customer.
        assert_eq!(r.entries.len(), 20);
        for e in &r.entries {
            assert_eq!(e.key_vals[0], Value::Int(7));
        }
        assert!(r.pages_visited >= ix.height() as u64);
    }

    #[test]
    fn range_seek_after_equality_prefix() {
        let (_, ix) = populated();
        // customer 7 rows have totals 7, 57, 107, ... 957.
        let r = ix.seek(
            &[Value::Int(7)],
            ColBound::Included(Value::Float(100.0)),
            ColBound::Excluded(Value::Float(300.0)),
        );
        let totals: Vec<f64> = r
            .entries
            .iter()
            .map(|e| match e.key_vals[1] {
                Value::Float(f) => f,
                _ => panic!(),
            })
            .collect();
        assert_eq!(totals, vec![107.0, 157.0, 207.0, 257.0]);
    }

    #[test]
    fn excluded_lower_bound() {
        let (_, ix) = populated();
        let r = ix.seek(
            &[Value::Int(7)],
            ColBound::Excluded(Value::Float(107.0)),
            ColBound::Included(Value::Float(207.0)),
        );
        let totals: Vec<f64> = r.entries.iter().map(|e| e.key_vals[1].as_f64()).collect();
        assert_eq!(totals, vec![157.0, 207.0]);
    }

    #[test]
    fn included_columns_available_at_leaf() {
        let (_, ix) = populated();
        let r = ix.seek(&[Value::Int(0)], ColBound::Unbounded, ColBound::Unbounded);
        let e = &r.entries[0]; // row id 0: status "open"
        assert_eq!(
            e.leaf_value(&ix.def, ColumnId(2)),
            Some(&Value::Str("open".into()))
        );
        assert_eq!(e.leaf_value(&ix.def, ColumnId(1)), Some(&Value::Int(0)));
        assert_eq!(e.leaf_value(&ix.def, ColumnId(0)), None);
    }

    #[test]
    fn maintenance_insert_delete_update() {
        let (mut heap, mut ix) = populated();
        let rid = heap.insert(row(5000, 7, "open", 1.5));
        ix.insert_row(rid, heap.peek(rid).unwrap());
        assert_eq!(
            ix.seek(&[Value::Int(7)], ColBound::Unbounded, ColBound::Unbounded)
                .entries
                .len(),
            21
        );
        // Update moving the row to another customer.
        let old = heap.peek(rid).unwrap().clone();
        let new = row(5000, 8, "open", 1.5);
        heap.update(rid, new.clone());
        let pages = ix.update_row(rid, &old, &new);
        assert!(pages > 0);
        assert_eq!(
            ix.seek(&[Value::Int(7)], ColBound::Unbounded, ColBound::Unbounded)
                .entries
                .len(),
            20
        );
        // Update touching no indexed column is free.
        let pages = ix.update_row(rid, &new, &new);
        assert_eq!(pages, 0);
        // Delete.
        ix.delete_row(rid, &new);
        assert_eq!(ix.len(), 1000);
    }

    #[test]
    fn full_scan_ordered() {
        let (_, ix) = populated();
        let r = ix.scan_all();
        assert_eq!(r.entries.len(), 1000);
        for w in r.entries.windows(2) {
            assert!(
                (w[0].key_vals[0].clone(), w[0].key_vals[1].clone())
                    <= (w[1].key_vals[0].clone(), w[1].key_vals[1].clone())
            );
        }
    }

    #[test]
    fn size_estimate_close_to_actual() {
        let (_, ix) = populated();
        let est = SecondaryIndex::estimate_size_bytes(&ix.def, &table(), 1000);
        let actual = ix.size_bytes();
        let ratio = est as f64 / actual as f64;
        assert!(
            (0.3..=3.0).contains(&ratio),
            "estimate {est} too far from actual {actual}"
        );
    }

    #[test]
    fn duplicate_keys_supported() {
        let t = table();
        let mut heap = Heap::new(t.avg_row_width());
        let def = IndexDef::new("ix_status", TableId(0), vec![ColumnId(2)], vec![]);
        let mut ix = SecondaryIndex::new(def, &t);
        for i in 0..100 {
            let rid = heap.insert(row(i, 0, "same", 0.0));
            ix.insert_row(rid, heap.peek(rid).unwrap());
        }
        let r = ix.seek(
            &[Value::Str("same".into())],
            ColBound::Unbounded,
            ColBound::Unbounded,
        );
        assert_eq!(r.entries.len(), 100);
    }
}
