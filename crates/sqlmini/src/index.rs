//! Secondary (non-clustered) B+ tree indexes over a heap table.
//!
//! An index entry's key is the composite of the index's key-column values
//! plus the row id (making every entry unique even under duplicate key
//! values, as SQL Server does with its row locator). The included-column
//! values ride behind the key values in the same leaf slot, so covering
//! scans never touch the heap. A leaf keeps its entries column-major and
//! typed — one run per leaf column, of its table column's declared type,
//! and one of row ids, [`BTree`]'s layout — so an entry costs no
//! allocation of its own, and a build sorts on exact 64-bit images of the
//! key values and copies the heap's typed columns into the leaves without
//! building a `Value`. Seeks and scans hand their entries on a leaf at a time
//! ([`Entries`]), for the executor's kernels to read in place. A seek reads
//! from the first entry within its lower bound and ends at the first that
//! leaves its equality prefix or passes its upper bound: under `Value`'s
//! total order every entry between the two qualifies, but those equal to
//! an excluded lower bound.

use crate::btree::{BTree, Entries};
use crate::column::{Dict, Typed};
use crate::heap::{Heap, RowId, PAGE_SIZE};
use crate::schema::{ColumnId, IndexDef, TableDef};
use crate::types::{Row, Value};
use std::cmp::Ordering;
use std::ops::Bound;

/// Leaf fill an index is built to, as a fraction of a page's entries: the
/// steady state of a B+tree under random inserts (ln 2). The bulk build
/// writes nodes this full and the size estimators assume it, so a new
/// index has the size the what-if API promised and room for maintenance
/// inserts before its first split.
pub(crate) const BUILD_FILL: f64 = 0.69;

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

impl ColBound {
    /// The bounding value, if any.
    fn value(&self) -> Option<&Value> {
        match self {
            ColBound::Included(v) | ColBound::Excluded(v) => Some(v),
            ColBound::Unbounded => None,
        }
    }
}

/// A materialized secondary index.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    def: IndexDef,
    /// Entries of the leaf columns' values (key columns in index order,
    /// then included columns in definition order), ordered by the key
    /// values then the row id.
    tree: BTree,
    /// The leaf columns ([`IndexDef::leaf_columns`]), fixed at creation.
    leaf: Vec<ColumnId>,
    /// Each column's place among the leaf columns, by `ColumnId`.
    pub(crate) slots: Vec<Option<usize>>,
    /// Bytes per entry, fixing page geometry.
    entry_width: u64,
}

/// Result of a seek/scan: the qualifying entries.
#[derive(Debug, Clone)]
pub struct SeekResult {
    pub entries: Vec<IndexEntry>,
}

impl SecondaryIndex {
    /// Create an empty index with page geometry derived from the schema.
    pub fn new(def: IndexDef, table: &TableDef) -> SecondaryIndex {
        let entry_width = entry_width(&def, table);
        let fanout = entries_per_page(entry_width) as usize;
        let types: Vec<_> = def.leaf_columns().map(|c| table.column(c).ty).collect();
        let tree = BTree::new(fanout, &types, def.key_columns.len());
        let leaf: Vec<ColumnId> = def.leaf_columns().collect();
        let slot = |c| leaf.iter().position(|&k| k == ColumnId(c));
        let slots = (0..table.columns.len() as u32).map(slot).collect();
        SecondaryIndex {
            def,
            tree,
            leaf,
            slots,
            entry_width,
        }
    }

    /// Build the index from an existing heap, replacing whatever it held:
    /// one sort, and a tree written bottom-up at `BUILD_FILL` (no
    /// root-to-leaf insert per row).
    pub fn build(&mut self, heap: &Heap) {
        let k = self.tree.key_len();
        let (runs, dicts) = heap.columns();
        let columns: Vec<(&Typed, &Dict)> = (self.def.leaf_columns())
            .map(|c| (&runs[c.0 as usize], &dicts[c.0 as usize]))
            .collect();
        // The sort reads the key columns where they lie, one column at a
        // time, and the leaves then copy every column's slots in the
        // sorted order, typed as the heap holds them. Slots go in rising
        // (row-id) order, so a stable sort on the key values alone leaves
        // equal keys in row-id order: the entries' own order, without
        // comparing a row id.
        let slots = heap
            .live_ids()
            .map(|rid| u32::try_from(rid.0).expect("a heap holds fewer than 2^32 slots"));
        let order = build_order(&columns[..k], slots);
        let fanout = self.tree.fanout();
        let rid = |slot: u32| RowId(u64::from(slot));
        self.tree = BTree::from_runs(fanout, BUILD_FILL, k, &columns, &order, rid);
    }

    /// The tree the entries live in.
    pub(crate) fn tree(&self) -> &BTree {
        &self.tree
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
    pub(crate) fn size_bytes(&self) -> u64 {
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

    /// Index maintenance: reflect a newly inserted heap row. Returns pages
    /// written (tree nodes touched).
    pub fn insert_row(&mut self, rid: RowId, row: &Row) -> u64 {
        let (leaf, before) = (&self.leaf, self.tree.write_visits());
        self.tree.insert(|j| &row[leaf[j].0 as usize], rid);
        self.tree.write_visits() - before
    }

    /// Index maintenance for the deletion of live row `rid` of `heap`,
    /// before the heap lets it go: reads only the key columns. Returns
    /// pages written.
    pub(crate) fn delete_from(&mut self, rid: RowId, heap: &Heap) -> u64 {
        let key_cols = self.def.key_columns.iter();
        let key_vals: Vec<Value> = key_cols.map(|&c| heap.value(rid, c.0 as usize)).collect();
        let before = self.tree.write_visits();
        self.tree.remove(&key_vals, rid);
        self.tree.write_visits() - before
    }

    /// Index maintenance for an UPDATE that writes `set` (column, value;
    /// the last write to a column wins) over live row `rid` of `heap`,
    /// before the heap takes it: zero pages, and nothing read, when no
    /// leaf column is set; reads only the leaf columns otherwise, and
    /// writes nothing when their values do not change. Returns pages
    /// written.
    pub(crate) fn update_set(&mut self, rid: RowId, heap: &Heap, set: &[(ColumnId, Value)]) -> u64 {
        let setting = |c: ColumnId| set.iter().rev().find(|(s, _)| *s == c).map(|(_, v)| v);
        let leaf = &self.leaf;
        if !leaf.iter().any(|&c| setting(c).is_some()) {
            return 0;
        }
        let old: Vec<Value> = leaf.iter().map(|c| heap.value(rid, c.0 as usize)).collect();
        let new = |j: usize| setting(leaf[j]).unwrap_or(&old[j]);
        if (0..old.len()).all(|j| old[j] == *new(j)) {
            return 0;
        }
        let k = self.def.key_columns.len();
        let before = self.tree.write_visits();
        self.tree.remove(&old[..k], rid);
        self.tree.insert(new, rid);
        self.tree.write_visits() - before
    }

    /// Seek with an equality prefix on the leading key columns and an
    /// optional range on the next key column.
    ///
    /// This mirrors the storage-engine capability the paper describes: a
    /// B+ tree seek supports multiple equality predicates but only one
    /// inequality (on the column ordered right after the equalities).
    fn seek(&self, eq_prefix: &[Value], lo: ColBound, hi: ColBound) -> SeekResult {
        let mut entries = Vec::new();
        let (k, w) = (self.def.key_columns.len(), self.tree.width());
        self.seek_visit(eq_prefix, lo, hi, |found| {
            entries.extend(found.positions().map(|i| IndexEntry {
                rid: found.rid(i),
                key_vals: (0..k).map(|j| found.value(i, j)).collect(),
                included_vals: (k..w).map(|j| found.value(i, j)).collect(),
            }));
        });
        SeekResult { entries }
    }

    /// Seek without materializing owned [`IndexEntry`]s: `f` is called
    /// with the qualifying entries a leaf at a time, in key order, as
    /// positions of the leaf's typed runs ([`Entries`]; columns in the
    /// order of `IndexDef::leaf_columns`). The runs borrow from the
    /// index, not from the visit, so a caller may keep them after the seek
    /// returns (the executor's covering row views do). The equality
    /// values and the bounds are compiled once against the key columns'
    /// types; nothing is cloned. Returns `(entries_visited,
    /// pages_visited)`.
    pub fn seek_visit<'a, 'v>(
        &'a self,
        eq_prefix: impl IntoIterator<Item = &'v Value>,
        lo: ColBound,
        hi: ColBound,
        mut f: impl FnMut(Entries<'a>),
    ) -> (u64, u64) {
        let tree = &self.tree;
        let key_len = self.def.key_columns.len();
        let (lo_val, hi_val) = (lo.value(), hi.value());
        // The lower composite bound: the equality values, then the range's
        // lower end, at the smallest row id.
        let mut from = tree.probe(eq_prefix, RowId(0));
        let p = from.len();
        if let Some(v) = lo_val {
            from = tree.probe_then(from, v);
        }
        assert!(p <= key_len, "equality prefix longer than key");
        assert!(
            p < key_len || lo_val.is_none() && hi_val.is_none(),
            "range column beyond key columns"
        );
        let lo_excluded = matches!(lo, ColBound::Excluded(_));
        let hi_op = hi_val.map(|v| tree.operand(p, v));
        // Whether an entry past the bound need not be looked for: every
        // entry from the first on qualifies.
        let open = p == 0 && !lo_excluded && hi_op.is_none();

        let reads_before = tree.read_visits();
        let mut visited = 0u64;
        let mut hand_on = |run, range: std::ops::Range<usize>| {
            if !range.is_empty() {
                visited += range.len() as u64;
                f(Entries::new(tree, run, range));
            }
        };
        tree.walk(Bound::Included(&from), |run, pos| {
            if open {
                hand_on(run, pos..run.len());
                return true;
            }
            // The entries are in key order from the first within the lower
            // bound: the first that leaves the equality prefix or passes
            // the upper bound ends the seek, and only those equal to an
            // excluded lower bound are skipped.
            let cmp = |i, j, op| tree.cmp_col(run, i, j, op);
            let mut start = pos;
            for i in pos..run.len() {
                let past = !(0..p).all(|j| cmp(i, j, from.op(j)).is_eq())
                    || match (&hi, &hi_op) {
                        (ColBound::Included(_), Some(op)) => cmp(i, p, op) == Ordering::Greater,
                        (ColBound::Excluded(_), Some(op)) => cmp(i, p, op) != Ordering::Less,
                        _ => false,
                    };
                if past {
                    hand_on(run, start..i);
                    return false;
                }
                if lo_excluded && cmp(i, p, from.op(p)).is_le() {
                    hand_on(run, start..i);
                    start = i + 1;
                }
            }
            hand_on(run, start..run.len());
            true
        });
        // Convert node visits into page visits; at least the descent.
        let pages_visited = (tree.read_visits() - reads_before).max(tree.height() as u64);
        (visited, pages_visited)
    }

    /// Full scan of the index in key order (an ordered covering scan).
    pub fn scan_all(&self) -> SeekResult {
        self.seek(&[], ColBound::Unbounded, ColBound::Unbounded)
    }

    /// Visitor form of [`scan_all`](Self::scan_all), mirroring
    /// [`seek_visit`](Self::seek_visit).
    pub fn scan_visit<'a>(&'a self, f: impl FnMut(Entries<'a>)) -> (u64, u64) {
        self.seek_visit([], ColBound::Unbounded, ColBound::Unbounded, f)
    }

    /// Leaf pages the index occupies (for scan costing).
    pub(crate) fn leaf_pages(&self) -> u64 {
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

/// The `slots` (rising) in the order a stable sort on their key values
/// puts them: `keys[j]` (a run and its dictionary) holds the `j`-th key
/// value of every slot.
///
/// Comparing two keys means reaching into `keys` twice, a cache miss a
/// comparison; so each key column is sorted on a 64-bit image of its
/// values, kept beside the slot in the sort buffer, and only ties go on to
/// the next column (see [`sort_run`]).
fn build_order(keys: &[(&Typed, &Dict)], slots: impl Iterator<Item = u32>) -> Vec<u32> {
    let keys: Vec<Key> = keys
        .iter()
        .map(|&(column, dict)| Key {
            column,
            ranks: dict.ranks(),
        })
        .collect();
    let mut order: Vec<(u64, u32)> = slots.map(|i| (0, i)).collect();
    sort_run(&mut order, &keys, 0);
    order.into_iter().map(|(_, i)| i).collect()
}

/// A key column as the build sorts it: the run, and for a string column
/// each code's rank ([`Dict::ranks`]).
struct Key<'c> {
    column: &'c Typed,
    ranks: Vec<u64>,
}

/// Sort `run` — entries equal on their key values before column `col`,
/// in slot order — by their key values from `col` on, then slot.
///
/// Nulls order first and equal each other, so they move to the front in
/// slot order. The rest sort on their exact images ([`Typed::image`]) and
/// slot, so a run of one image holds equal values and goes on to the next
/// column. The rest are in slot order, so a stable sort on the image alone
/// gives that order: a run longer than [`RADIX_CUTOFF`] takes
/// [`radix_sort`].
fn sort_run(run: &mut [(u64, u32)], keys: &[Key], col: usize) {
    if run.len() < 2 || col == keys.len() {
        return;
    }
    let column = keys[col].column;
    let nulls = run.iter().filter(|e| column.is_null(e.1 as usize)).count();
    if nulls > 0 && nulls < run.len() {
        let (null, other): (Vec<_>, Vec<_>) =
            run.iter().partition(|e| column.is_null(e.1 as usize));
        run[..nulls].copy_from_slice(&null);
        run[nulls..].copy_from_slice(&other);
    }
    let (null, rest) = run.split_at_mut(nulls);
    sort_run(null, keys, col + 1);
    for e in rest.iter_mut() {
        e.0 = column.image(e.1 as usize, &keys[col].ranks);
    }
    if rest.len() > RADIX_CUTOFF {
        radix_sort(rest);
    } else {
        rest.sort_unstable();
    }
    let mut start = 0;
    while start < rest.len() {
        let first = rest[start].0;
        let len = rest[start..].iter().take_while(|e| e.0 == first).count();
        sort_run(&mut rest[start..start + len], keys, col + 1);
        start += len;
    }
}

/// Runs up to this long sort by comparison: below it a radix sort's 256
/// counters a byte cost more than the comparisons they save.
const RADIX_CUTOFF: usize = 128;

/// Sort `run` stably by image: an LSD radix sort a byte at a time, least
/// significant first, skipping every byte all the images share. A run
/// already in image order is left as it is.
fn radix_sort(run: &mut [(u64, u32)]) {
    let mut prev = run[0].0;
    let (mut all, mut any, mut sorted) = (prev, prev, true);
    for e in &run[1..] {
        sorted &= prev <= e.0;
        prev = e.0;
        all &= e.0;
        any |= e.0;
    }
    if sorted {
        return;
    }
    let varying = all ^ any;
    let mut scratch = vec![(0, 0); run.len()];
    let (mut from, mut to) = (&mut *run, &mut scratch[..]);
    let mut in_scratch = false;
    for shift in (0..64).step_by(8).filter(|s| (varying >> s) & 0xff != 0) {
        let byte = |e: &(u64, u32)| ((e.0 >> shift) & 0xff) as usize;
        // Each byte value's first position in `to`, then the next free one.
        let mut next = [0usize; 256];
        for e in from.iter() {
            next[byte(e)] += 1;
        }
        let mut start = 0;
        for slot in next.iter_mut() {
            (*slot, start) = (start, start + *slot);
        }
        for e in from.iter() {
            to[next[byte(e)]] = *e;
            next[byte(e)] += 1;
        }
        (from, to) = (to, from);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        run.copy_from_slice(&scratch);
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

    /// An UPDATE as the executor runs it: the index reads the old
    /// values, then the heap takes the new ones. Returns the index's
    /// pages written.
    fn update(
        ix: &mut SecondaryIndex,
        heap: &mut Heap,
        rid: RowId,
        set: &[(ColumnId, Value)],
    ) -> u64 {
        let pages = ix.update_set(rid, heap, set);
        set.iter()
            .for_each(|(c, v)| assert!(heap.set(rid, c.0 as usize, v.clone())));
        pages
    }

    /// A DELETE as the executor runs it: the index first, then the heap.
    fn delete(ix: &mut SecondaryIndex, heap: &mut Heap, rid: RowId) -> u64 {
        let pages = ix.delete_from(rid, heap);
        assert!(heap.delete(rid));
        pages
    }

    /// Every column of `row`, as an UPDATE's SET list.
    fn set_all(row: &Row) -> Vec<(ColumnId, Value)> {
        (0..row.len())
            .map(|c| (ColumnId(c as u32), row[c].clone()))
            .collect()
    }

    fn populated() -> (Heap, SecondaryIndex) {
        let t = table();
        let mut heap = Heap::new(&t.types(), t.avg_row_width());
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
        ix.insert_row(rid, &heap.row(rid).unwrap());
        assert_eq!(
            ix.seek(&[Value::Int(7)], ColBound::Unbounded, ColBound::Unbounded)
                .entries
                .len(),
            21
        );
        // Update moving the row to another customer.
        let pages = update(&mut ix, &mut heap, rid, &[(ColumnId(1), Value::Int(8))]);
        assert!(pages > 0);
        assert_eq!(
            ix.seek(&[Value::Int(7)], ColBound::Unbounded, ColBound::Unbounded)
                .entries
                .len(),
            20
        );
        // Update touching no indexed column is free, and so is one
        // that writes the indexed columns' own values back.
        let pages = update(&mut ix, &mut heap, rid, &[(ColumnId(0), Value::Int(5001))]);
        assert_eq!(pages, 0);
        let same = set_all(&heap.row(rid).unwrap());
        assert_eq!(update(&mut ix, &mut heap, rid, &same), 0);
        // The last write to a column wins.
        let twice = [(ColumnId(1), Value::Int(9)), (ColumnId(1), Value::Int(8))];
        assert_eq!(update(&mut ix, &mut heap, rid, &twice), 0);
        ix.check_invariants().unwrap();
        // Delete.
        assert!(delete(&mut ix, &mut heap, rid) > 0);
        assert_eq!(ix.len(), 1000);
        assert_eq!(ix.len(), heap.len());
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
            let mut narrow_heap = Heap::new(&narrow.types(), narrow.avg_row_width());
            let mut wide_heap = Heap::new(&wide.types(), wide.avg_row_width());
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

    /// A leaf slot is its values and its row id, each in a typed run of
    /// its table column's declared type, built or maintained: an `Int`
    /// costs 8 bytes of its leaf's page, a string its 4-byte code, and the
    /// row id 8.
    #[test]
    fn a_leaf_slot_is_its_values_and_a_row_id() {
        assert_eq!(std::mem::size_of::<RowId>(), 8);
        let t = table();
        let (mut heap, mut ix) = populated();
        let declared = |ix: &SecondaryIndex| {
            let mut leaf = ix.def.leaf_columns().enumerate();
            leaf.all(|(j, c)| ix.tree().types()[j].ty() == t.column(c).ty)
        };
        assert!(declared(&ix), "{:?}", ix.def);
        let rid = heap.insert(row(5_000, 7, "held", 2.5));
        ix.insert_row(rid, &heap.row(rid).unwrap());
        assert!(declared(&ix));
        ix.check_invariants().unwrap();
    }

    /// A built index shares its heap columns' dictionaries. Whichever
    /// side first meets a new string copies the dictionary for itself,
    /// so each side's codes keep naming its own strings: the index meets
    /// "ix_first" before the heap does, the heap meets "heap_only" alone
    /// and "heap_first" before the index does, and every entry still
    /// reads back its heap row's values.
    #[test]
    fn heap_and_index_part_their_dictionaries_on_a_new_string() {
        let (mut heap, mut ix) = populated();
        let rid = heap.next_id();
        ix.insert_row(rid, &row(6_000, 1, "ix_first", 1.0));
        assert_eq!(heap.insert(row(6_000, 1, "ix_first", 1.0)), rid);
        heap.insert(row(6_001, 2, "heap_only", 1.0));
        let rid = heap.insert(row(6_002, 3, "heap_first", 1.0));
        ix.insert_row(rid, &heap.row(rid).unwrap());
        let rid = heap.insert(row(6_003, 4, "done", 1.0));
        ix.insert_row(rid, &heap.row(rid).unwrap());
        ix.check_invariants().unwrap();
        let entries = ix.scan_all().entries;
        assert_eq!(entries.len(), heap.len() - 1);
        for e in entries {
            let vals = e.key_vals.iter().chain(&e.included_vals);
            for (v, c) in vals.zip(ix.def.leaf_columns()) {
                assert_eq!(*v, heap.value(e.rid, c.0 as usize), "{:?}", e.rid);
            }
        }
    }

    /// One column per pool of values, each drawn at random for 2,000 rows, and
    /// the column's type.
    fn pools() -> Vec<(ValueType, Vec<Value>)> {
        let s = |t: &str| Value::Str(t.into());
        let big = 1i64 << 53;
        let pools = vec![
            // 0: floats that compare equal (-0.0 and 0.0), and floats
            // past 2^53.
            vec![
                Value::Null,
                Value::Float(3.0),
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Float(-5.0),
                Value::Float(2.5),
                Value::Float(-1e300),
                Value::Float(big as f64),
                Value::Float((big + 2) as f64),
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
            // 5: ints past 2^53, whose f64s collide.
            vec![
                Value::Null,
                Value::Int(big),
                Value::Int(big + 1),
                Value::Int(-big - 1),
                Value::Int(7),
            ],
            // 6: short strings only, no nulls.
            vec![s("open"), s("done"), s("held"), s("")],
        ];
        let ty = |pool: &Vec<Value>| pool.iter().find_map(Value::value_type).expect("a type");
        pools.into_iter().map(|p| (ty(&p), p)).collect()
    }

    /// The build puts entries in exactly the order of a stable sort on
    /// their key values (the heap hands rows over in row-id order, so
    /// that is key values, then row id), whatever the key's types, however
    /// many columns it has and however many rows, on both sides of
    /// [`RADIX_CUTOFF`]. Salted with `CHAOS_SEED`, so CI's chaos matrix
    /// draws different rows per seed.
    #[test]
    fn build_order_is_a_stable_sort_on_the_key_values() {
        let seed = std::env::var("CHAOS_SEED").unwrap_or_default();
        let salt = (seed.bytes()).fold(0, |h: u64, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15 ^ salt;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut pools = pools();
        // 7 and 8: ints and floats whose images differ in every byte
        // (0 and -1, 1.0 and -1.0), and random ones.
        let mut wide_ints = vec![Value::Null, Value::Int(0), Value::Int(-1)];
        wide_ints.extend((0..8).map(|_| Value::Int(next() as i64)));
        let mut wide_floats = vec![Value::Float(1.0), Value::Float(-1.0)];
        let floats = std::iter::repeat_with(|| f64::from_bits(next())).filter(|f| !f.is_nan());
        wide_floats.extend(floats.take(8).map(Value::Float));
        pools.extend([(ValueType::Int, wide_ints), (ValueType::Float, wide_floats)]);
        // 9 and 10: a column already in key order and one in reverse, each
        // value three rows long.
        let columns = (pools.iter().map(|(ty, _)| *ty))
            .chain([ValueType::Int, ValueType::Int])
            .enumerate()
            .map(|(i, ty)| ColumnDef::new(format!("c{i}"), ty))
            .collect();
        let table = TableDef::new("mixed", columns);
        let keys: [&[u32]; 22] = [
            &[0],
            &[1],
            &[2],
            &[3],
            &[4],
            &[5],
            &[6],
            &[7],
            &[8],
            &[9],
            &[10],
            &[0, 1],
            &[1, 0],
            &[6, 4],
            &[3, 2],
            &[5, 0],
            &[8, 7],
            &[10, 9],
            &[3, 6, 1],
            &[2, 5, 0],
            &[6, 3, 4],
            &[6, 10, 7],
        ];
        for rows in [RADIX_CUTOFF - 1, RADIX_CUTOFF, RADIX_CUTOFF + 1, 2_000] {
            let mut heap = Heap::new(&table.types(), table.avg_row_width());
            for i in 0..rows as i64 {
                let row = (pools.iter())
                    .map(|(_, pool)| pool[(next() >> 32) as usize % pool.len()].clone())
                    .chain([Value::Int(i / 3), Value::Int((rows as i64 - i) / 3)])
                    .collect();
                heap.insert(row);
            }
            for key in keys {
                let key_columns: Vec<ColumnId> = key.iter().map(|&c| ColumnId(c)).collect();
                let def = IndexDef::new("ix", TableId(0), key_columns.clone(), vec![ColumnId(6)]);
                let mut ix = SecondaryIndex::new(def, &table);
                ix.build(&heap);
                ix.check_invariants()
                    .unwrap_or_else(|e| panic!("{rows} rows, key {key:?}: {e}"));
                let mut want: Vec<(Vec<Value>, RowId)> = heap
                    .live_ids()
                    .map(|rid| {
                        let key_vals = key.iter().map(|&c| heap.value(rid, c as usize).clone());
                        (key_vals.collect(), rid)
                    })
                    .collect();
                want.sort_by(|a, b| a.0.cmp(&b.0));
                // `Debug` tells apart what `==` does not: -0.0 and 0.0.
                let want: Vec<String> = want.iter().map(|e| format!("{e:?}")).collect();
                let got: Vec<String> = ix
                    .scan_all()
                    .entries
                    .into_iter()
                    .map(|e| format!("{:?}", (e.key_vals, e.rid)))
                    .collect();
                assert!(got == want, "{rows} rows, key {key:?}: build order differs");
            }
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
    /// tree. `update_set` deletes before it inserts; either way the new
    /// included value must be the one a seek returns.
    #[test]
    fn included_value_update_is_visible_through_seek_visit() {
        let (mut heap, mut ix) = populated();
        let rid = RowId(21); // customer 21, total 21.0, status "open"
        let held = [(ColumnId(2), Value::Str("held".into()))];
        assert!(update(&mut ix, &mut heap, rid, &held) > 0);
        let status_of = |ix: &SecondaryIndex| {
            let mut seen = Vec::new();
            ix.seek_visit(
                &[Value::Int(21), Value::Float(21.0)],
                ColBound::Unbounded,
                ColBound::Unbounded,
                // Keys (customer, total), then the included status.
                |found| seen.extend(found.positions().map(|i| (found.rid(i), found.value(i, 2)))),
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
        let mut heap = Heap::new(&table.types(), table.avg_row_width());
        for i in 0..1_500 {
            heap.insert(wide_row(i, &tags));
        }
        let mut ix = SecondaryIndex::new(def.clone(), &table);
        ix.build(&heap);
        let mut live: Vec<RowId> = heap.live_ids().collect();
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
                    assert!(ix.insert_row(rid, &heap.row(rid).unwrap()) > 0);
                    live.push(rid);
                }
                1 | 2 => {
                    let rid = live.swap_remove(pick);
                    assert!(delete(&mut ix, &mut heap, rid) > 0);
                }
                _ => {
                    // Column 1 is the leading key, column 5 is included,
                    // column 0 is the second key: one of each kind.
                    let rid = live[pick];
                    let col = [1, 5, 0][(x >> 40) as usize % 3];
                    let v = if col == 0 {
                        Value::Int(-(step as i64))
                    } else {
                        tags[(x >> 48) as usize % tags.len()].clone()
                    };
                    update(&mut ix, &mut heap, rid, &[(ColumnId(col), v)]);
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

    /// An equality seek on one typed key column must find exactly the
    /// entries a filter over the whole index finds, for operands of every
    /// kind — a float between two ints past 2^53 (equal to neither), a NaN
    /// (above every number), NULL, a string in the dictionary and one
    /// not, and types that rank apart.
    #[test]
    fn single_column_seeks_find_every_equal_entry() {
        let big = 1i64 << 53;
        let ints: Vec<Value> = [-2, 0, 7, big, big + 1, big + 2]
            .map(Value::Int)
            .into_iter()
            .chain([Value::Null])
            .collect();
        let strs: Vec<Value> = ["a", "a\0", "b", ""]
            .map(Value::from)
            .into_iter()
            .chain([Value::Null])
            .collect();
        for (ty, pool) in [(ValueType::Int, ints), (ValueType::Str, strs)] {
            let t = TableDef::new(
                "t",
                vec![
                    ColumnDef::new("k", ty),
                    ColumnDef::new("id", ValueType::Int),
                ],
            );
            let mut heap = Heap::new(&t.types(), t.avg_row_width());
            for i in 0..3_000i64 {
                heap.insert(vec![
                    pool[(i * 7 % pool.len() as i64) as usize].clone(),
                    Value::Int(i),
                ]);
            }
            let def = IndexDef::new("ix_k", TableId(0), vec![ColumnId(0)], vec![ColumnId(1)]);
            let mut ix = SecondaryIndex::new(def, &t);
            ix.build(&heap);
            assert!(ix.height() >= 2, "several leaves");
            let all = ix.scan_all().entries;
            let probes = [
                Value::Float(big as f64),
                Value::Float(f64::NAN),
                Value::Float(7.0),
                Value::Int(big + 1),
                Value::Null,
                Value::from("a"),
                Value::from("zz"),
                Value::Bool(true),
                Value::Date(3),
            ];
            for probe in probes {
                let found = ix.seek(
                    std::slice::from_ref(&probe),
                    ColBound::Unbounded,
                    ColBound::Unbounded,
                );
                let want: Vec<RowId> = (all.iter())
                    .filter(|e| e.key_vals[0] == probe)
                    .map(|e| e.rid)
                    .collect();
                let got: Vec<RowId> = found.entries.iter().map(|e| e.rid).collect();
                assert_eq!(got, want, "{probe:?}");
            }
        }
    }

    #[test]
    fn duplicate_keys_supported() {
        let t = table();
        let mut heap = Heap::new(&t.types(), t.avg_row_width());
        let def = IndexDef::new("ix_status", TableId(0), vec![ColumnId(2)], vec![]);
        let mut ix = SecondaryIndex::new(def, &t);
        for i in 0..100 {
            let rid = heap.insert(row(i, 0, "same", 0.0));
            ix.insert_row(rid, &heap.row(rid).unwrap());
        }
        let r = ix.seek(
            &[Value::Str("same".into())],
            ColBound::Unbounded,
            ColBound::Unbounded,
        );
        assert_eq!(r.entries.len(), 100);
    }
}
