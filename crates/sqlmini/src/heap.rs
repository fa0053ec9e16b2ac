//! Heap table storage, one typed run per column.
//!
//! A table's rows live in its columns: column `c` is one typed run
//! ([`crate::column`]) of the table's declared type for `c`, holding every
//! row's `c`-th value at the row's slot, with one dictionary per column
//! for its strings, beside one live bit per slot. That is the layout a
//! B+tree leaf keeps its entries in ([`crate::btree`]), so the executor
//! reads a heap row and a covering index entry alike: a slice of runs and
//! a position. A value written must fit its column; the engine makes it
//! fit before it reaches the heap. A [`RowId`] is a slot number, stable
//! for the row's lifetime; a deleted slot reads `NULL` in every column
//! and goes on a LIFO free list for the next insert. A dictionary keeps
//! every string its column was given, including those only deleted rows
//! held. Scans, statistics and index builds read the typed runs they need
//! and nothing else; `Value` is the edge: rows go in and come out as
//! values, and [`Heap::value`] builds one on demand.
//!
//! A simple page model (fixed page size, rows-per-page derived from the
//! average row width) fixes the heap's geometry by slot count; the
//! executor turns that geometry into the *logical page reads* the paper's
//! validator reasons about.

use crate::column::{At, Bits, Column, Dict, Typed};
use crate::types::{Row, Value, ValueType};

/// Identity of a row within a heap. Stable for the row's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

/// Logical page size in bytes, matching SQL Server's 8 KiB pages.
pub(crate) const PAGE_SIZE: u64 = 8192;

/// A heap of rows for one table, stored by column.
#[derive(Debug, Clone)]
pub struct Heap {
    /// `runs[c]`, at a slot: the value of column `c` in the row there.
    runs: Vec<Typed>,
    /// The dictionary of each column's string codes.
    dicts: Vec<Dict>,
    /// The run each column is in, by `ColumnId`: its own.
    pub(crate) slots: Vec<Option<usize>>,
    /// Whether each slot holds a row.
    live: Bits,
    /// Dead slots, reused last-freed first: every dead slot, once.
    free: Vec<u64>,
    /// Slots the columns have room for before they next grow.
    room: usize,
    /// Average row width in bytes (from the table schema); fixes the page
    /// geometry for logical-read accounting.
    row_width: u64,
}

impl Heap {
    /// Create an empty heap for rows of one value of each of `types`
    /// and the given average width.
    pub fn new(types: &[ValueType], row_width: u64) -> Heap {
        Heap {
            runs: types.iter().map(|&ty| Typed::new(ty, 0)).collect(),
            dicts: vec![Dict::default(); types.len()],
            slots: (0..types.len()).map(Some).collect(),
            live: Bits::default(),
            free: Vec::new(),
            room: 0,
            row_width: row_width.max(1),
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live.len() - self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of values in a row.
    fn width(&self) -> usize {
        self.runs.len()
    }

    /// Rows that fit on one page.
    fn rows_per_page(&self) -> u64 {
        (PAGE_SIZE / self.row_width).max(1)
    }

    /// Number of pages the heap occupies (by slot count, since deleted rows
    /// leave holes until reused — like ghost records).
    pub(crate) fn page_count(&self) -> u64 {
        (self.live.len() as u64)
            .div_ceil(self.rows_per_page())
            .max(1)
    }

    /// Total size in bytes.
    pub(crate) fn size_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE
    }

    /// The id the next [`insert`](Self::insert) gives its row: the slot
    /// freed last, or a new one.
    pub(crate) fn next_id(&self) -> RowId {
        RowId(self.free.last().copied().unwrap_or(self.live.len() as u64))
    }

    /// Write `row` where `at` says in every column.
    fn store(&mut self, at: At, row: Row) {
        for ((run, dict), v) in self.runs.iter_mut().zip(&mut self.dicts).zip(row) {
            run.store(at, &v, dict);
        }
    }

    /// Insert a row, returning its id: the slot freed last, or a new one.
    ///
    /// # Panics
    /// If the row does not have one value per column, or a value does not
    /// fit its column ([`Column::push`]).
    pub fn insert(&mut self, row: Row) -> RowId {
        assert_eq!(
            row.len(),
            self.width(),
            "row width differs from the table's"
        );
        if let Some(slot) = self.free.pop() {
            self.live.set(slot as usize, true);
            self.store(At::Over(slot as usize), row);
            RowId(slot)
        } else {
            if self.live.len() == self.room {
                // An eighth again, not double: doubling grows every
                // column of the table at once.
                self.reserve((self.live.len() / 8).max(16));
            }
            self.live.push(true);
            self.store(At::End, row);
            RowId(self.live.len() as u64 - 1)
        }
    }

    /// Add rows given by column — slot `i` of `columns[c]` is column `c`
    /// of the `i`-th new row — and return their ids, in order: the ids
    /// that many [`insert`](Self::insert)s would give them. A heap that
    /// never held a row takes the columns as they are.
    ///
    /// # Panics
    /// If there is not one column per column, or they differ in length.
    /// Each must be of its heap column's type.
    pub(crate) fn append_columns(&mut self, columns: Vec<Column>) -> Vec<RowId> {
        assert_eq!(columns.len(), self.width(), "one column per column");
        debug_assert!(
            columns
                .iter()
                .zip(&self.runs)
                .all(|(a, b)| a.ty() == b.ty()),
            "columns of the heap's types"
        );
        let n = columns.first().map_or(0, Column::len);
        assert!(
            columns.iter().all(|c| c.len() == n),
            "columns differ in length"
        );
        if self.live.len() == 0 {
            (self.runs, self.dicts) = columns.into_iter().map(Column::into_parts).unzip();
            self.live.extend(n, true);
            self.room = n;
            return (0..n as u64).map(RowId).collect();
        }
        let row = |i: usize| columns.iter().map(|c| c.value(i)).collect();
        (0..n).map(|i| self.insert(row(i))).collect()
    }

    /// Make room for `additional` more slots in every column (a bulk load
    /// that knows its row count allocates each column once).
    fn reserve(&mut self, additional: usize) {
        self.live.reserve(additional);
        for run in &mut self.runs {
            run.reserve(additional);
        }
        self.room = self.live.len() + additional;
    }

    /// Whether `id` names a live row.
    pub(crate) fn is_live(&self, id: RowId) -> bool {
        (id.0 as usize) < self.live.len() && self.live.get(id.0 as usize)
    }

    /// Each column's run (a dead slot reads `NULL`) and dictionary.
    pub(crate) fn columns(&self) -> (&[Typed], &[Dict]) {
        (&self.runs, &self.dicts)
    }

    /// A live bit per slot.
    pub(crate) fn live(&self) -> &Bits {
        &self.live
    }

    /// The value of column `col` in slot `id` (`NULL` in a dead slot).
    pub fn value(&self, id: RowId, col: usize) -> Value {
        self.runs[col].value(id.0 as usize, &self.dicts[col])
    }

    /// Ids of the live rows, rising.
    pub fn live_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        self.live.ones().map(|s| RowId(s as u64))
    }

    /// An owned copy of a live row.
    pub fn row(&self, id: RowId) -> Option<Row> {
        self.is_live(id)
            .then(|| (0..self.width()).map(|c| self.value(id, c)).collect())
    }

    /// Write `v` over column `col` of a live row; `false` if the row is
    /// not live.
    ///
    /// # Panics
    /// If `v` does not fit the column ([`Column::push`]).
    pub(crate) fn set(&mut self, id: RowId, col: usize, v: Value) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.runs[col].store(At::Over(id.0 as usize), &v, &mut self.dicts[col]);
        true
    }

    /// Delete a row; `false` if it was not live.
    pub(crate) fn delete(&mut self, id: RowId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        let slot = id.0 as usize;
        self.live.set(slot, false);
        self.free.push(id.0);
        for (run, dict) in self.runs.iter_mut().zip(&mut self.dicts) {
            run.store(At::Over(slot), &Value::Null, dict);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The types of [`row`]'s values.
    const TYPES: [ValueType; 2] = [ValueType::Int, ValueType::Str];

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::Str(format!("r{i}").into())]
    }

    /// `a` and `b` are one value: the same variant and, for a float, the
    /// same bits (`-0.0` is not `0.0`, a NaN is a NaN) — stricter than
    /// `Value`'s equality, under which `3` equals `3.0`.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
        }
    }

    #[test]
    fn insert_get_delete() {
        let mut h = Heap::new(&TYPES, 32);
        let a = h.insert(row(1));
        let b = h.insert(row(2));
        assert_eq!(h.len(), 2);
        assert_eq!(h.row(a).unwrap()[0], Value::Int(1));
        assert_eq!(h.value(b, 1), Value::Str("r2".into()));
        assert_eq!(h.row(a), Some(row(1)));
        assert!(h.delete(a));
        assert!(!h.delete(a));
        assert_eq!(h.len(), 1);
        assert!(h.row(a).is_none());
        assert!(!h.is_live(a));
        assert_eq!(h.value(a, 1), Value::Null, "a dead slot reads NULL");
        assert!(h.row(b).is_some());
    }

    #[test]
    fn slot_reuse() {
        let mut h = Heap::new(&TYPES, 32);
        let a = h.insert(row(1));
        h.delete(a);
        assert_eq!(h.next_id(), a);
        let b = h.insert(row(2));
        assert_eq!(a, b, "freed slot should be reused");
    }

    #[test]
    fn update_in_place() {
        let mut h = Heap::new(&TYPES, 32);
        let a = h.insert(row(1));
        assert!(h.set(a, 0, Value::Int(99)));
        assert_eq!(h.row(a).unwrap(), vec![Value::Int(99), Value::from("r1")]);
        assert!(!h.set(RowId(500), 0, Value::Int(0)));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn insert_rejects_a_row_of_another_width() {
        Heap::new(&[ValueType::Int; 3], 32).insert(row(1));
    }

    #[test]
    fn scan_visits_all_live() {
        let mut h = Heap::new(&TYPES, 32);
        for i in 0..10 {
            h.insert(row(i));
        }
        h.delete(RowId(3));
        let ids: Vec<u64> = h.live_ids().map(|r| r.0).collect();
        assert_eq!(ids, [0, 1, 2, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn page_accounting() {
        let mut h = Heap::new(&TYPES, 100); // 81 rows per 8192-byte page
        assert_eq!(h.rows_per_page(), 81);
        for i in 0..200 {
            h.insert(row(i));
        }
        assert_eq!(h.page_count(), 3);
    }

    #[test]
    fn empty_heap_has_one_page() {
        let h = Heap::new(&TYPES, 64);
        assert_eq!(h.page_count(), 1);
        assert_eq!(h.size_bytes(), PAGE_SIZE);
    }

    /// The heap against a `Vec<Option<Row>>` reference over random
    /// insert/set/delete/append sequences: after every operation the
    /// length, the page count, the live ids and every value agree — each
    /// value read back as the very variant written, float bits included —
    /// an insert takes the slot freed last (or a new one), and a batch by
    /// column takes the ids inserts would. Columns are drawn of one type
    /// (`Int`, `Float`, `Str`, `Date`, `Bool`) with NULLs and `-0.0`.
    /// Salted with `CHAOS_SEED`, so CI's chaos matrix draws different
    /// cases per seed.
    #[test]
    fn heap_equals_row_reference() {
        let seed = std::env::var("CHAOS_SEED").unwrap_or_default();
        proptest::run_prop_test(
            &format!("heap_equals_row_reference/{seed}"),
            &ProptestConfig::with_cases(64),
            (1usize..5, 1u64..300, 0usize..400, any::<u64>()),
            |(width, row_width, ops, salt)| {
                let mut x = salt | 1;
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let types: Vec<ValueType> = (0..width)
                    .map(|c| {
                        use ValueType as T;
                        [T::Int, T::Float, T::Str, T::Date, T::Bool][(salt >> (8 * c)) as usize % 5]
                    })
                    .collect();
                let value = |c: usize, r: u64| -> Value {
                    let k = (r >> 16) as i64 % 50;
                    if r.is_multiple_of(6) {
                        return Value::Null;
                    }
                    match types[c] {
                        ValueType::Int => Value::Int(k - 25),
                        ValueType::Float if k % 7 == 0 => Value::Float(-0.0),
                        ValueType::Float => Value::Float(k as f64 / 2.0 - 5.0),
                        ValueType::Str => Value::Str(format!("s{}", k % 7).into()),
                        ValueType::Date => Value::Date(k as i32 - 10),
                        ValueType::Bool => Value::Bool(k % 2 == 0),
                    }
                };
                let mut heap = Heap::new(&types, row_width);
                let mut model: Vec<Option<Row>> = Vec::new();
                let mut freed: Vec<u64> = Vec::new();
                for step in 0..ops {
                    let new_row = |next: &mut dyn FnMut() -> u64| -> Row {
                        (0..width).map(|c| value(c, next())).collect()
                    };
                    let r = next();
                    let target = match model.len() {
                        0 => 0,
                        n => (r >> 40) as usize % (n + 2),
                    };
                    match r % 8 {
                        0..=2 => {
                            let want = freed.pop().unwrap_or(model.len() as u64);
                            prop_assert_eq!(heap.next_id(), RowId(want));
                            let new = new_row(&mut next);
                            let rid = heap.insert(new.clone());
                            prop_assert!(rid == RowId(want), "insert at step {step}: {rid:?}");
                            if want as usize == model.len() {
                                model.push(Some(new));
                            } else {
                                model[want as usize] = Some(new);
                            }
                        }
                        3 | 4 => {
                            let c = (r >> 20) as usize % width;
                            let v = value(c, next());
                            let live = model.get(target).is_some_and(Option::is_some);
                            let done = heap.set(RowId(target as u64), c, v.clone());
                            prop_assert!(done == live, "set at step {step}");
                            if live {
                                model[target].as_mut().expect("live")[c] = v;
                            }
                        }
                        5 | 6 => {
                            let live = model.get_mut(target).and_then(Option::take).is_some();
                            if live {
                                freed.push(target as u64);
                            }
                            let done = heap.delete(RowId(target as u64));
                            prop_assert!(done == live, "delete at step {step}");
                        }
                        _ => {
                            // A batch by column takes the ids inserts would.
                            let rows: Vec<Row> =
                                (0..(r >> 8) % 4).map(|_| new_row(&mut next)).collect();
                            let columns = (0..width)
                                .map(|c| {
                                    let mut col = Column::of_type(types[c], 0);
                                    rows.iter().for_each(|row| col.push(row[c].clone()));
                                    col
                                })
                                .collect();
                            let ids = heap.append_columns(columns);
                            prop_assert_eq!(ids.len(), rows.len());
                            for (rid, row) in ids.into_iter().zip(rows) {
                                let want = freed.pop().unwrap_or(model.len() as u64);
                                prop_assert_eq!(rid, RowId(want));
                                if want as usize == model.len() {
                                    model.push(Some(row));
                                } else {
                                    model[want as usize] = Some(row);
                                }
                            }
                        }
                    }
                    let live: Vec<u64> = (0..model.len() as u64)
                        .filter(|&i| model[i as usize].is_some())
                        .collect();
                    prop_assert_eq!(heap.len(), live.len());
                    let ids: Vec<u64> = heap.live_ids().map(|r| r.0).collect();
                    prop_assert_eq!(&ids, &live);
                    let pages = (model.len() as u64)
                        .div_ceil((PAGE_SIZE / row_width).max(1))
                        .max(1);
                    prop_assert_eq!(heap.page_count(), pages);
                    for (i, slot) in model.iter().enumerate() {
                        let rid = RowId(i as u64);
                        prop_assert_eq!(heap.is_live(rid), slot.is_some());
                        prop_assert_eq!(heap.row(rid).is_some(), slot.is_some());
                        for c in 0..width {
                            let want = slot.as_ref().map_or(&Value::Null, |r| &r[c]);
                            let got = heap.value(rid, c);
                            prop_assert!(
                                same(&got, want),
                                "value {i}.{c} at step {step}: {got:?} != {want:?}"
                            );
                        }
                    }
                }
                Ok(())
            },
        );
    }
}
