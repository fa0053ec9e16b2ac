//! Secondary (non-clustered) B+ tree indexes over a heap table.
//!
//! An index entry's key is the composite of the index's key-column values
//! plus the row id (making every entry unique even under duplicate key
//! values, as SQL Server does with its row locator). The included-column
//! values ride in the same allocation behind the key values, so covering
//! scans never touch the heap and an entry costs one allocation.

use crate::btree::BTree;
use crate::heap::{Heap, RowId, PAGE_SIZE};
use crate::schema::{IndexDef, TableDef};
use crate::types::{Row, Value};
use std::cmp::Ordering;
use std::ops::Bound;

/// Leaf fill an index is built to, as a fraction of a page's entries: the
/// steady state of a B+tree under random inserts (ln 2). The bulk build
/// writes nodes this full and the size estimators assume it, so a new
/// index has the size the what-if API promised and room for maintenance
/// inserts before its first split.
pub const BUILD_FILL: f64 = 0.69;

/// One index entry: key-column values in index order, then included-column
/// values in definition order, in one allocation; then the row id. Entries
/// order (and compare equal) by key values then row id — the included
/// values are cargo.
#[derive(Debug, Clone)]
struct IndexKey {
    vals: Box<[Value]>,
    /// How many of `vals` are key values.
    key_len: u32,
    rid: RowId,
}

impl IndexKey {
    /// A key-only entry, as a seek bound or a removal probe.
    fn probe(key_vals: Vec<Value>, rid: RowId) -> IndexKey {
        IndexKey {
            key_len: key_vals.len() as u32,
            vals: key_vals.into(),
            rid,
        }
    }

    /// `(key values, included values)`.
    fn split(&self) -> (&[Value], &[Value]) {
        self.vals.split_at(self.key_len as usize)
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &IndexKey) -> Ordering {
        (self.split().0.cmp(other.split().0)).then(self.rid.cmp(&other.rid))
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &IndexKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &IndexKey) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for IndexKey {}

/// One qualifying index entry returned by a seek or scan.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    pub rid: RowId,
    /// Key-column values (index order).
    pub key_vals: Vec<Value>,
    /// Included-column values (definition order).
    pub included_vals: Vec<Value>,
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
    tree: BTree<IndexKey, ()>,
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
        let entry_width = entry_width(&def, table);
        SecondaryIndex {
            def,
            tree: BTree::new(entries_per_page(entry_width) as usize),
            entry_width,
        }
    }

    /// Build the index from an existing heap, replacing whatever it held:
    /// one scan, one sort, and a tree written bottom-up at [`BUILD_FILL`]
    /// (no root-to-leaf insert per row). Returns the number of heap pages
    /// scanned (the IO cost of the build's scan phase).
    pub fn build(&mut self, heap: &Heap) -> u64 {
        let mut entries = Vec::with_capacity(heap.len());
        entries.extend(
            heap.scan_quiet()
                .map(|(rid, row)| (self.entry_for(rid, row), ())),
        );
        // The heap hands rows over in row-id order, so a stable sort on
        // the key values alone leaves equal keys in row-id order: the
        // entries' own order, without comparing a row id.
        entries.sort_by(|(a, ()), (b, ())| a.split().0.cmp(b.split().0));
        self.tree = BTree::from_sorted(self.tree.fanout(), BUILD_FILL, entries);
        heap.page_count()
    }

    /// Check the tree's structural invariants ([`BTree::check_invariants`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tree.check_invariants()
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
        let per_page = entries_per_page(entry_width(def, table));
        // Leaves at the fill the build writes them to, plus the internal
        // levels (~1/fanout overhead).
        let leaf_pages = (rows as f64 / (per_page as f64 * BUILD_FILL)).ceil() as u64 + 1;
        (leaf_pages + leaf_pages / per_page + 1) * PAGE_SIZE
    }

    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// The entry `row` has in this index.
    fn entry_for(&self, rid: RowId, row: &Row) -> IndexKey {
        let leaf = self.def.leaf_columns();
        IndexKey {
            vals: leaf.map(|c| row[c.0 as usize].clone()).collect(),
            key_len: self.def.key_columns.len() as u32,
            rid,
        }
    }

    /// Index maintenance: reflect a newly inserted heap row. Returns pages
    /// written (tree nodes touched).
    pub fn insert_row(&mut self, rid: RowId, row: &Row) -> u64 {
        let before = self.tree.write_visits();
        self.tree.insert(self.entry_for(rid, row), ());
        self.tree.write_visits() - before
    }

    /// Index maintenance: reflect a deleted heap row.
    pub fn delete_row(&mut self, rid: RowId, row: &Row) -> u64 {
        let before = self.tree.write_visits();
        let key_cols = self.def.key_columns.iter();
        let key_vals = key_cols.map(|&c| row[c.0 as usize].clone()).collect();
        self.tree.remove(&IndexKey::probe(key_vals, rid));
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
        let key_len = self.def.key_columns.len();
        let (_, pages_visited) = self.seek_visit(eq_prefix, lo, hi, |rid, leaf| {
            let (key_vals, included) = leaf.split_at(key_len);
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
    /// and its *borrowed* leaf values — the key values, then the included
    /// values, the order of [`IndexDef::leaf_columns`]. The slice borrows
    /// from the index, not from the visit, so a caller may keep it after
    /// the seek returns (the executor's covering row views do). Returns
    /// `(entries_visited, pages_visited)`.
    ///
    /// This is the executor's hot path — the per-entry `Vec` clones of
    /// [`seek`] dominated control-pass allocation, and most callers only
    /// need a subset of the values (or just the row ids).
    pub fn seek_visit<'a, F: FnMut(RowId, &'a [Value])>(
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
            IndexKey::probe(vals, RowId(0))
        };
        let lo_excl_val = match &lo {
            ColBound::Excluded(v) => Some(v),
            _ => None,
        };

        let prefix_len = eq_prefix.len();
        let range_idx = prefix_len; // position of the range column, if any
        let mut visited = 0u64;
        for (entry, ()) in self.tree.range(Bound::Included(&lo_key), Bound::Unbounded) {
            let key_vals = entry.split().0;
            // Stop once the equality prefix no longer matches.
            if key_vals[..prefix_len] != eq_prefix[..] {
                break;
            }
            if let Some(ex) = lo_excl_val {
                if &key_vals[range_idx] == ex {
                    continue;
                }
            }
            match &hi {
                ColBound::Included(v) => {
                    if key_vals[range_idx] > *v {
                        break;
                    }
                }
                ColBound::Excluded(v) => {
                    if key_vals[range_idx] >= *v {
                        break;
                    }
                }
                ColBound::Unbounded => {}
            }
            visited += 1;
            f(entry.rid, &entry.vals);
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
    pub fn scan_visit<'a, F: FnMut(RowId, &'a [Value])>(&'a self, f: F) -> (u64, u64) {
        self.seek_visit(&[], ColBound::Unbounded, ColBound::Unbounded, f)
    }

    /// Leaf pages the index occupies (for scan costing).
    pub fn leaf_pages(&self) -> u64 {
        (self.tree.len() as u64)
            .div_ceil(entries_per_page(self.entry_width))
            .max(1)
    }
}

/// Bytes one entry of `def` takes: its leaf columns plus the row locator.
fn entry_width(def: &IndexDef, table: &TableDef) -> u64 {
    let leaf = def.leaf_columns();
    leaf.map(|c| table.column(c).ty.avg_width()).sum::<u64>() + 8
}

/// Entries a page holds, which is also the tree's fanout.
fn entries_per_page(entry_width: u64) -> u64 {
    (PAGE_SIZE / entry_width).clamp(8, 512)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnId, TableId};
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
        assert_eq!(e.key_vals, vec![Value::Int(0), Value::Float(0.0)]);
        assert_eq!(e.included_vals, vec![Value::Str("open".into())]);
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

    /// A table whose every column goes into one index entry wide enough
    /// (> 1 KiB) that a page holds the minimum of eight.
    fn wide_table() -> (TableDef, IndexDef) {
        let mut columns = vec![ColumnDef::new("id", ValueType::Int)];
        columns.extend((0..42).map(|i| ColumnDef::new(format!("s{i}"), ValueType::Str)));
        let def = IndexDef::new(
            "ix_wide",
            TableId(0),
            vec![ColumnId(1), ColumnId(0)],
            (2..43).map(ColumnId).collect(),
        );
        (TableDef::new("wide", columns), def)
    }

    /// Thirteen strings for [`wide_row`] to deal out.
    fn tags() -> Vec<Value> {
        (0..13)
            .map(|i| Value::Str(format!("tag_{i}").into()))
            .collect()
    }

    fn wide_row(id: i64, tags: &[Value]) -> Row {
        let mut row = vec![Value::Int(id)];
        row.extend((0..42).map(|c| tags[(id as usize * 7 + c) % tags.len()].clone()));
        row
    }

    /// The build writes nodes at the fill the estimator assumes, so the
    /// what-if size of an index is the size it is then built to: never
    /// under, and over by no more than the estimator's two spare pages.
    #[test]
    fn size_estimate_close_to_actual() {
        let tags = tags();
        let (wide, wide_def) = wide_table();
        let narrow = table();
        let narrow_def = populated().1.def;
        for rows in [1_000i64, 10_000, 100_000] {
            let mut narrow_heap = Heap::new(narrow.avg_row_width());
            let mut wide_heap = Heap::new(wide.avg_row_width());
            for i in 0..rows {
                narrow_heap.insert(row(i, i % 50, "open", i as f64));
                wide_heap.insert(wide_row(i, &tags));
            }
            for (def, table, heap, fanout) in [
                (&narrow_def, &narrow, &narrow_heap, 170),
                (&wide_def, &wide, &wide_heap, 8),
            ] {
                let mut ix = SecondaryIndex::new(def.clone(), table);
                assert_eq!(ix.tree.fanout(), fanout);
                ix.build(heap);
                ix.check_invariants().unwrap();
                let est = SecondaryIndex::estimate_size_bytes(def, table, rows as u64);
                let actual = ix.size_bytes();
                let ratio = est as f64 / actual as f64;
                assert!(
                    (1.0..=1.15).contains(&ratio),
                    "{}: {rows} rows estimated at {est}, built to {actual}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn an_entry_is_one_allocation_of_32_bytes() {
        assert_eq!(std::mem::size_of::<(IndexKey, ())>(), 32);
    }

    /// Entries compare by key values then row id, so an entry that
    /// differs only in an included value would *replace* its twin in the
    /// tree. `update_row` deletes before it inserts; either way the new
    /// included value must be the one a seek returns.
    #[test]
    fn included_value_update_is_visible_through_seek_visit() {
        let (mut heap, mut ix) = populated();
        let rid = RowId(21); // customer 21, total 21.0, status "open"
        let old = heap.peek(rid).unwrap().clone();
        let new = row(21, 21, "held", 21.0);
        heap.update(rid, new.clone());
        assert!(ix.update_row(rid, &old, &new) > 0);
        let status_of = |ix: &SecondaryIndex| {
            let mut seen = Vec::new();
            ix.seek_visit(
                &[Value::Int(21), Value::Float(21.0)],
                ColBound::Unbounded,
                ColBound::Unbounded,
                // Keys (customer, total), then the included status.
                |r, leaf| seen.push((r, leaf[2].clone())),
            );
            seen
        };
        assert_eq!(status_of(&ix), vec![(rid, Value::Str("held".into()))]);
        assert_eq!(ix.len(), 1000);

        // The tree's own replace path, reached by inserting over a live
        // entry: the stored entry is overwritten, not kept.
        let newer = row(21, 21, "gone", 21.0);
        ix.insert_row(rid, &newer);
        assert_eq!(status_of(&ix), vec![(rid, Value::Str("gone".into()))]);
        assert_eq!(ix.len(), 1000);
        ix.check_invariants().unwrap();
    }

    /// Bulk-build, then live: a few thousand random maintenance calls on
    /// a fanout-8 index, the tree well formed after each, and at the end
    /// entry for entry what a fresh build over the heap gives.
    #[test]
    fn bulk_built_index_survives_maintenance() {
        let tags = tags();
        let (table, def) = wide_table();
        let mut heap = Heap::new(table.avg_row_width());
        for i in 0..1_500 {
            heap.insert(wide_row(i, &tags));
        }
        let mut ix = SecondaryIndex::new(def.clone(), &table);
        ix.build(&heap);
        let mut live: Vec<RowId> = heap.scan_quiet().map(|(rid, _)| rid).collect();
        let mut x: u64 = 0x1234_5678_9abc_def1;
        let mut next_id = 1_500;
        for step in 0..3_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pick = (x >> 16) as usize % live.len();
            match x % 4 {
                0 => {
                    let rid = heap.insert(wide_row(next_id, &tags));
                    next_id += 1;
                    assert!(ix.insert_row(rid, heap.peek(rid).unwrap()) > 0);
                    live.push(rid);
                }
                1 | 2 => {
                    let rid = live.swap_remove(pick);
                    let old = heap.peek(rid).unwrap().clone();
                    heap.delete(rid);
                    assert!(ix.delete_row(rid, &old) > 0);
                }
                _ => {
                    // Column 1 is the leading key, column 5 is included,
                    // column 0 is the second key: one of each kind.
                    let rid = live[pick];
                    let old = heap.peek(rid).unwrap().clone();
                    let mut new = old.clone();
                    let col = [1, 5, 0][(x >> 40) as usize % 3];
                    new[col] = if col == 0 {
                        Value::Int(-(step as i64))
                    } else {
                        tags[(x >> 48) as usize % tags.len()].clone()
                    };
                    heap.update(rid, new.clone());
                    ix.update_row(rid, &old, &new);
                }
            }
            ix.check_invariants()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_eq!(ix.len(), heap.len());
        }
        let mut rebuilt = SecondaryIndex::new(def, &table);
        rebuilt.build(&heap);
        let entries = |ix: &SecondaryIndex| -> Vec<_> {
            let all = ix.scan_all().entries.into_iter();
            all.map(|e| (e.rid, e.key_vals, e.included_vals)).collect()
        };
        assert!(entries(&ix) == entries(&rebuilt));
        assert!(ix.height() >= 4, "fanout 8 over {} rows", heap.len());
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
