//! Secondary (non-clustered) B+ tree indexes over a heap table.
//!
//! An index entry's key is the composite of the index's key-column values
//! plus the row id (making every entry unique even under duplicate key
//! values, as SQL Server does with its row locator). The included-column
//! values ride behind the key values in the same leaf slot, so covering
//! scans never touch the heap. A leaf keeps its entries flat — one run of
//! values and one of row ids, [`BTree`]'s layout — so an entry costs no
//! allocation of its own.

use crate::btree::BTree;
use crate::heap::{Heap, RowId, PAGE_SIZE};
use crate::schema::{IndexDef, TableDef};
use crate::types::{Row, Value};
use std::ops::Bound;

/// Leaf fill an index is built to, as a fraction of a page's entries: the
/// steady state of a B+tree under random inserts (ln 2). The bulk build
/// writes nodes this full and the size estimators assume it, so a new
/// index has the size the what-if API promised and room for maintenance
/// inserts before its first split.
pub const BUILD_FILL: f64 = 0.69;

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
    /// Entries of the leaf columns' values (key columns in index order,
    /// then included columns in definition order), ordered by the key
    /// values then the row id.
    tree: BTree,
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
        let fanout = entries_per_page(entry_width) as usize;
        let tree = BTree::new(fanout, def.leaf_columns().count(), def.key_columns.len());
        SecondaryIndex {
            def,
            tree,
            entry_width,
        }
    }

    /// Build the index from an existing heap, replacing whatever it held:
    /// one scan, one sort, and a tree written bottom-up at [`BUILD_FILL`]
    /// (no root-to-leaf insert per row). Returns the number of heap pages
    /// scanned (the IO cost of the build's scan phase).
    pub fn build(&mut self, heap: &Heap) -> u64 {
        let (w, k) = (self.tree.width(), self.tree.key_len());
        let columns: Vec<usize> = self.def.leaf_columns().map(|c| c.0 as usize).collect();
        // The sort reads the key values alone, gathered flat and dropped
        // once sorted; the leaves then take every value from the heap, so
        // the build never holds a second copy of the index.
        let mut keys = Vec::with_capacity(heap.len() * k);
        let mut rids = Vec::with_capacity(heap.len());
        for (rid, row) in heap.scan_quiet() {
            keys.extend(columns[..k].iter().map(|&c| row[c].clone()));
            rids.push(rid);
        }
        // The heap hands rows over in row-id order, so a stable sort on
        // the key values alone leaves equal keys in row-id order: the
        // entries' own order, without comparing a row id.
        let order = build_order(&keys, rids.len(), k);
        drop(keys);
        let (columns, rids) = (&columns[..], &rids[..]);
        let entries = order.iter().map(|&i| {
            let rid = rids[i as usize];
            let row = heap.peek(rid).expect("a scanned row is live");
            (columns.iter().map(move |&c| row[c].clone()), rid)
        });
        let fanout = self.tree.fanout();
        self.tree = BTree::from_sorted(fanout, BUILD_FILL, w, k, entries);
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

    /// The values of the entry `row` has in this index.
    fn entry_for(&self, row: &Row) -> Vec<Value> {
        let leaf = self.def.leaf_columns();
        leaf.map(|c| row[c.0 as usize].clone()).collect()
    }

    /// Index maintenance: reflect a newly inserted heap row. Returns pages
    /// written (tree nodes touched).
    pub fn insert_row(&mut self, rid: RowId, row: &Row) -> u64 {
        let before = self.tree.write_visits();
        self.tree.insert(self.entry_for(row), rid);
        self.tree.write_visits() - before
    }

    /// Index maintenance: reflect a deleted heap row.
    pub fn delete_row(&mut self, rid: RowId, row: &Row) -> u64 {
        let before = self.tree.write_visits();
        let key_cols = self.def.key_columns.iter();
        let key_vals: Vec<Value> = key_cols.map(|&c| row[c.0 as usize].clone()).collect();
        self.tree.remove(&key_vals, rid);
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
    /// [`seek`](Self::seek) dominated control-pass allocation, and most callers only
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
        let mut lo_key = eq_prefix.to_vec();
        match &lo {
            ColBound::Included(v) | ColBound::Excluded(v) => lo_key.push(v.clone()),
            ColBound::Unbounded => {}
        }
        let lo_excl_val = match &lo {
            ColBound::Excluded(v) => Some(v),
            _ => None,
        };

        let prefix_len = eq_prefix.len();
        let range_idx = prefix_len; // position of the range column, if any
        let mut visited = 0u64;
        let key_len = self.def.key_columns.len();
        let from = Bound::Included((&lo_key[..], RowId(0)));
        for (entry, rid) in self.tree.range(from, Bound::Unbounded) {
            let key_vals = &entry[..key_len];
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
            f(rid, entry);
        }
        // Convert node visits into page visits; at least the descent.
        let pages_visited = (self.tree.read_visits() - reads_before).max(self.tree.height() as u64);
        (visited, pages_visited)
    }

    /// Full scan of the index in key order (an ordered covering scan).
    pub fn scan_all(&self) -> SeekResult {
        self.seek(&[], ColBound::Unbounded, ColBound::Unbounded)
    }

    /// Visitor form of [`scan_all`](Self::scan_all), mirroring
    /// [`seek_visit`](Self::seek_visit).
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

/// The positions `0..n` of the `n` keys in `keys` (`k` values each, flat)
/// in the order a stable sort on them puts them.
///
/// Comparing two keys means reaching into `keys` twice, a cache miss a
/// comparison; so each key column is first sorted on a 64-bit image of
/// its values, kept beside the position in the sort buffer, and only ties
/// go further (see [`sort_run`]).
fn build_order(keys: &[Value], n: usize, k: usize) -> Vec<u32> {
    let mut order: Vec<(u64, u32)> = (0..n as u32).map(|i| (0, i)).collect();
    sort_run(&mut order, keys, k, 0);
    order.into_iter().map(|(_, i)| i).collect()
}

/// Sort `run` — entries equal on their key values before column `col`,
/// in position order — by their key values from `col` on, then position.
///
/// Nulls order first and equal each other, so they move to the front in
/// position order. The rest sort on their [`Image`] and position. A run of
/// one image holds equal values where the image is exact, and goes on to
/// the next column; elsewhere it is sorted by comparing the values. A
/// column of mixed types (or with a NaN) has no image, and is compared.
fn sort_run(run: &mut [(u64, u32)], keys: &[Value], k: usize, col: usize) {
    if run.len() < 2 || col == k {
        return;
    }
    let at = |i: u32| &keys[i as usize * k + col];
    let rest_of_key = |i: u32| &keys[i as usize * k + col..(i as usize + 1) * k];
    let compare =
        |a: &(u64, u32), b: &(u64, u32)| rest_of_key(a.1).cmp(rest_of_key(b.1)).then(a.1.cmp(&b.1));
    let nulls = run.iter().filter(|e| at(e.1).is_null()).count();
    if nulls > 0 && nulls < run.len() {
        let (null, other): (Vec<_>, Vec<_>) = run.iter().partition(|e| at(e.1).is_null());
        run[..nulls].copy_from_slice(&null);
        run[nulls..].copy_from_slice(&other);
    }
    let (null, rest) = run.split_at_mut(nulls);
    sort_run(null, keys, k, col + 1);
    let Some(image) = Image::of(rest.iter().map(|e| at(e.1))) else {
        rest.sort_unstable_by(compare);
        return;
    };
    for e in rest.iter_mut() {
        e.0 = image.of_value(at(e.1));
    }
    rest.sort_unstable();
    let mut start = 0;
    while start < rest.len() {
        let first = rest[start].0;
        let len = rest[start..].iter().take_while(|e| e.0 == first).count();
        let tie = &mut rest[start..start + len];
        if image.exact {
            sort_run(tie, keys, k, col + 1);
        } else {
            tie.sort_unstable_by(compare);
        }
        start += len;
    }
}

/// An order-preserving 64-bit image of one column's non-null values: a
/// smaller value never has a larger image, equal values have equal
/// images, and where `exact`, equal images are equal values.
struct Image {
    kind: ImageKind,
    exact: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum ImageKind {
    Bool,
    Int,
    /// Ints and floats together, as `Value` compares them: as `f64`.
    Num,
    Date,
    /// The first eight bytes, zero-padded: exact when no string is longer
    /// or holds a zero byte.
    Str,
}

impl Image {
    /// The image for a column holding `vals`, if one exists.
    fn of<'a>(vals: impl Iterator<Item = &'a Value>) -> Option<Image> {
        let mut kind: Option<ImageKind> = None;
        let (mut long_str, mut big_int) = (false, false);
        for v in vals {
            let this = match v {
                Value::Bool(_) => ImageKind::Bool,
                Value::Int(i) => {
                    // Beyond 2^53 an int has no f64 of its own.
                    big_int |= i.unsigned_abs() > 1 << 53;
                    ImageKind::Int
                }
                Value::Float(f) if f.is_nan() => return None,
                Value::Float(_) => ImageKind::Num,
                Value::Date(_) => ImageKind::Date,
                Value::Str(s) => {
                    long_str |= s.len() > 8 || s.bytes().any(|b| b == 0);
                    ImageKind::Str
                }
                Value::Null => return None,
            };
            kind = Some(match (kind, this) {
                (None, this) => this,
                (Some(a), b) if a == b => a,
                (Some(ImageKind::Int | ImageKind::Num), ImageKind::Int | ImageKind::Num) => {
                    ImageKind::Num
                }
                _ => return None,
            });
        }
        let kind = kind?;
        let exact = match kind {
            ImageKind::Num => !big_int,
            ImageKind::Str => !long_str,
            ImageKind::Bool | ImageKind::Int | ImageKind::Date => true,
        };
        Some(Image { kind, exact })
    }

    fn of_value(&self, v: &Value) -> u64 {
        const SIGN: u64 = 1 << 63;
        match (self.kind, v) {
            (ImageKind::Num, Value::Int(i)) => float_image(*i as f64),
            (ImageKind::Num, Value::Float(f)) => float_image(*f),
            (_, Value::Int(i)) => *i as u64 ^ SIGN,
            (_, Value::Bool(b)) => u64::from(*b),
            (_, Value::Date(d)) => i64::from(*d) as u64 ^ SIGN,
            (_, Value::Str(s)) => {
                let mut head = [0u8; 8];
                let n = s.len().min(8);
                head[..n].copy_from_slice(&s.as_bytes()[..n]);
                u64::from_be_bytes(head)
            }
            (_, Value::Float(_) | Value::Null) => unreachable!("no image for {v:?}"),
        }
    }
}

/// `f64` (not NaN) to a `u64` of the same order; `-0.0` equals `0.0`.
fn float_image(f: f64) -> u64 {
    let bits = if f == 0.0 { 0 } else { f.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
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

    /// A leaf slot is its values and its row id, in the leaf's own two
    /// runs: `24 × width + 8` bytes of the page allocation, nothing else.
    #[test]
    fn a_leaf_slot_is_its_values_and_a_row_id() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<RowId>(), 8);
    }

    /// A column per value pool, each drawn at random for 2,000 rows.
    fn pools() -> Vec<Vec<Value>> {
        let s = |t: &str| Value::Str(t.into());
        vec![
            // 0: ints and floats that compare equal (3 and 3.0, -0.0 and
            // 0.0 and 0), and ints past 2^53 whose f64s collide.
            vec![
                Value::Null,
                Value::Int(3),
                Value::Float(3.0),
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Int(0),
                Value::Int(-5),
                Value::Float(2.5),
                Value::Float(-1e300),
                Value::Int(1 << 53),
                Value::Int((1 << 53) + 1),
            ],
            // 1: strings sharing an 8-byte prefix, 8 bytes and longer,
            // empty, and with a zero byte.
            vec![
                Value::Null,
                s(""),
                s("a"),
                s("a\0"),
                s("prefix_"),
                s("prefix__"),
                s("prefix__a"),
                s("prefix__b"),
                s("zzzzzzzzzzzz"),
                s("cat_1"),
                s("cat_12"),
            ],
            // 2: dates.
            vec![
                Value::Null,
                Value::Date(-3),
                Value::Date(0),
                Value::Date(19_000),
            ],
            // 3: booleans.
            vec![Value::Bool(true), Value::Bool(false), Value::Null],
            // 4: ints at the ends of their range.
            vec![
                Value::Int(i64::MIN),
                Value::Int(-1),
                Value::Int(0),
                Value::Int(1),
                Value::Int(i64::MAX),
            ],
            // 5: every type in one column.
            vec![
                Value::Int(1),
                s("x"),
                Value::Bool(true),
                Value::Date(1),
                Value::Float(0.5),
                Value::Null,
            ],
            // 6: short strings only, no nulls.
            vec![s("open"), s("done"), s("held"), s("")],
        ]
    }

    /// The build puts entries in exactly the order of a stable sort on
    /// their key values (the heap hands rows over in row-id order, so
    /// that is key values, then row id), whatever the key's types and
    /// however many columns it has.
    #[test]
    fn build_order_is_a_stable_sort_on_the_key_values() {
        let pools = pools();
        let columns = (0..pools.len())
            .map(|i| ColumnDef::new(format!("c{i}"), ValueType::Str))
            .collect();
        let table = TableDef::new("mixed", columns);
        let mut heap = Heap::new(table.avg_row_width());
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..2_000 {
            let row = pools
                .iter()
                .map(|pool| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    pool[(x >> 32) as usize % pool.len()].clone()
                })
                .collect();
            heap.insert(row);
        }
        let keys: [&[u32]; 15] = [
            &[0],
            &[1],
            &[2],
            &[3],
            &[4],
            &[5],
            &[6],
            &[0, 1],
            &[1, 0],
            &[6, 4],
            &[3, 2],
            &[5, 0],
            &[3, 6, 1],
            &[2, 5, 0],
            &[6, 3, 4],
        ];
        for key in keys {
            let key_columns: Vec<ColumnId> = key.iter().map(|&c| ColumnId(c)).collect();
            let def = IndexDef::new("ix", TableId(0), key_columns.clone(), vec![ColumnId(6)]);
            let mut ix = SecondaryIndex::new(def, &table);
            ix.build(&heap);
            ix.check_invariants()
                .unwrap_or_else(|e| panic!("key {key:?}: {e}"));
            let mut want: Vec<(Vec<Value>, RowId)> = heap
                .scan_quiet()
                .map(|(rid, row)| (key.iter().map(|&c| row[c as usize].clone()).collect(), rid))
                .collect();
            want.sort_by(|a, b| a.0.cmp(&b.0));
            // `Debug` tells apart what `==` does not: Int(3) and
            // Float(3.0), -0.0 and 0.0.
            let want: Vec<String> = want.iter().map(|e| format!("{e:?}")).collect();
            let got: Vec<String> = ix
                .scan_all()
                .entries
                .into_iter()
                .map(|e| format!("{:?}", (e.key_vals, e.rid)))
                .collect();
            assert!(got == want, "key {key:?}: build order differs");
        }
    }

    /// A fork's indexes are its own: writes through the fork change the
    /// fork's seeks and leave the original's as they were.
    #[test]
    fn writes_to_a_fork_leave_the_original_index_alone() {
        use crate::clock::SimClock;
        use crate::engine::{Database, DbConfig};
        use crate::query::{CmpOp, Predicate, QueryTemplate, Scalar, Statement};

        let t = table();
        let mut db = Database::new("original", DbConfig::default(), SimClock::new());
        let tid = db.create_table(t).unwrap();
        db.load_rows(
            tid,
            (0..1000i64).map(|i| {
                row(
                    i,
                    i % 50,
                    if i % 3 == 0 { "open" } else { "done" },
                    i as f64,
                )
            }),
        );
        let (ix, _) = db
            .create_index(IndexDef::new(
                "ix_cust_total",
                tid,
                vec![ColumnId(1), ColumnId(3)],
                vec![ColumnId(2)],
            ))
            .unwrap();
        let seeks = |db: &Database| -> Vec<_> {
            let index = db.secondary_index(ix).unwrap();
            index.check_invariants().unwrap();
            (0..50)
                .flat_map(|c| {
                    let found =
                        index.seek(&[Value::Int(c)], ColBound::Unbounded, ColBound::Unbounded);
                    found
                        .entries
                        .into_iter()
                        .map(|e| (e.rid, e.key_vals, e.included_vals))
                })
                .collect()
        };
        let before = seeks(&db);
        let mut fork = db.fork("fork", 7);
        let p = |c: u32, at: u16| Predicate::param(ColumnId(c), CmpOp::Eq, at);
        let writes = [
            Statement::Insert {
                table: tid,
                values: (0..4).map(Scalar::Param).collect(),
            },
            Statement::Update {
                table: tid,
                predicates: vec![p(1, 0)],
                set: vec![(ColumnId(2), Scalar::Param(1))],
            },
            Statement::Delete {
                table: tid,
                predicates: vec![p(1, 0)],
            },
        ];
        for (i, stmt) in writes.into_iter().enumerate() {
            let tpl = QueryTemplate::new(stmt, [4, 2, 1][i]);
            for c in 0..10i64 {
                let params = match i {
                    0 => vec![
                        Value::Int(5_000 + c),
                        Value::Int(c),
                        Value::Str("new".into()),
                        Value::Float(0.5),
                    ],
                    1 => vec![Value::Int(10 + c), Value::Str("held".into())],
                    _ => vec![Value::Int(20 + c)],
                };
                fork.execute(&tpl, &params).unwrap();
            }
        }
        assert_eq!(seeks(&db), before);
        assert_ne!(seeks(&fork), before);
        assert_eq!(db.secondary_index(ix).unwrap().len(), 1000);
        assert_eq!(fork.secondary_index(ix).unwrap().len(), 1000 + 10 - 200);
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
