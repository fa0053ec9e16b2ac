//! Heap table storage, one vector per column.
//!
//! A table's rows live in its columns: column `c` is one `Vec<Value>`
//! holding every row's `c`-th value at the row's slot, beside one live
//! flag per slot. A [`RowId`] is a slot number, stable for the row's
//! lifetime; a deleted slot holds `NULL` in every column (so the strings
//! it held are freed) and goes on a LIFO free list for the next insert.
//! A scan with one predicate therefore walks one contiguous column, not
//! one allocation per row, and statistics and index builds read the
//! columns they need and nothing else.
//!
//! A simple page model (fixed page size, rows-per-page derived from the
//! average row width) fixes the heap's geometry by slot count; the
//! executor turns that geometry into the *logical page reads* the paper's
//! validator reasons about.

use crate::types::{Row, Value};

/// Identity of a row within a heap. Stable for the row's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

/// Logical page size in bytes, matching SQL Server's 8 KiB pages.
pub const PAGE_SIZE: u64 = 8192;

/// A heap of rows for one table, stored by column.
#[derive(Debug, Clone)]
pub struct Heap {
    /// `columns[c][slot]`: the value of column `c` in the row at `slot`.
    columns: Vec<Vec<Value>>,
    /// Whether each slot holds a row.
    live: Vec<bool>,
    /// Dead slots, reused last-freed first: every dead slot, once.
    free: Vec<u64>,
    /// Average row width in bytes (from the table schema); fixes the page
    /// geometry for logical-read accounting.
    row_width: u64,
}

impl Heap {
    /// Create an empty heap for rows of `n_columns` values and the given
    /// average width.
    pub fn new(n_columns: usize, row_width: u64) -> Heap {
        Heap {
            columns: vec![Vec::new(); n_columns],
            live: Vec::new(),
            free: Vec::new(),
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
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Rows that fit on one page.
    pub fn rows_per_page(&self) -> u64 {
        (PAGE_SIZE / self.row_width).max(1)
    }

    /// Number of pages the heap occupies (by slot count, since deleted rows
    /// leave holes until reused — like ghost records).
    pub fn page_count(&self) -> u64 {
        (self.live.len() as u64)
            .div_ceil(self.rows_per_page())
            .max(1)
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE
    }

    /// The id the next [`insert`](Self::insert) gives its row: the slot
    /// freed last, or a new one.
    pub(crate) fn next_id(&self) -> RowId {
        RowId(self.free.last().copied().unwrap_or(self.live.len() as u64))
    }

    /// Insert a row, returning its id: the slot freed last, or a new one.
    ///
    /// # Panics
    /// If the row does not have one value per column.
    pub fn insert(&mut self, row: Row) -> RowId {
        assert_eq!(
            row.len(),
            self.width(),
            "row width differs from the table's"
        );
        if let Some(slot) = self.free.pop() {
            self.live[slot as usize] = true;
            self.write(slot as usize, row);
            RowId(slot)
        } else {
            if self.live.len() == self.live.capacity() {
                // An eighth again, not double: doubling grows every
                // column of the table at once.
                self.reserve((self.live.len() / 8).max(16));
            }
            self.live.push(true);
            for (col, v) in self.columns.iter_mut().zip(row) {
                col.push(v);
            }
            RowId(self.live.len() as u64 - 1)
        }
    }

    /// Append rows given by column — `columns[c][i]` is column `c` of the
    /// `i`-th new row — in new slots, in order; returns the first new id.
    /// An empty heap takes the vectors as they are.
    ///
    /// # Panics
    /// If there is not one vector per column, or they differ in length.
    pub(crate) fn append_columns(&mut self, columns: Vec<Vec<Value>>) -> RowId {
        assert_eq!(columns.len(), self.width(), "one vector per column");
        let n = columns.first().map_or(0, Vec::len);
        assert!(
            columns.iter().all(|c| c.len() == n),
            "columns differ in length"
        );
        let first = RowId(self.live.len() as u64);
        for (col, mut new) in self.columns.iter_mut().zip(columns) {
            if col.is_empty() {
                *col = new;
            } else {
                col.append(&mut new);
            }
        }
        self.live.resize(self.live.len() + n, true);
        first
    }

    /// Make room for `additional` more slots in every column (a bulk load
    /// that knows its row count allocates each column once).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.live.reserve_exact(additional);
        for col in &mut self.columns {
            col.reserve_exact(additional);
        }
    }

    /// Whether `id` names a live row.
    pub fn is_live(&self, id: RowId) -> bool {
        self.live.get(id.0 as usize).copied().unwrap_or(false)
    }

    /// Column `col` of every slot, in slot order; a dead slot reads `NULL`.
    pub fn column(&self, col: usize) -> &[Value] {
        &self.columns[col]
    }

    /// The value of column `col` in slot `id` (`NULL` in a dead slot).
    pub fn value(&self, id: RowId, col: usize) -> &Value {
        &self.columns[col][id.0 as usize]
    }

    /// Ids of the live rows, rising.
    pub fn live_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        self.live_ids_from(RowId(0))
    }

    /// Ids of the live rows from `start` on, rising.
    pub(crate) fn live_ids_from(&self, start: RowId) -> impl Iterator<Item = RowId> + '_ {
        let start = (start.0 as usize).min(self.live.len());
        let live = self.live[start..].iter().enumerate();
        live.filter(|(_, &l)| l)
            .map(move |(i, _)| RowId((start + i) as u64))
    }

    /// An owned copy of a live row.
    pub fn row(&self, id: RowId) -> Option<Row> {
        let slot = id.0 as usize;
        self.is_live(id)
            .then(|| self.columns.iter().map(|c| c[slot].clone()).collect())
    }

    /// Replace a live row in place.
    ///
    /// # Panics
    /// If the row does not have one value per column.
    pub fn update(&mut self, id: RowId, row: Row) -> bool {
        assert_eq!(
            row.len(),
            self.width(),
            "row width differs from the table's"
        );
        if !self.is_live(id) {
            return false;
        }
        self.write(id.0 as usize, row);
        true
    }

    /// Delete a row. Returns the old row.
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        if !self.is_live(id) {
            return None;
        }
        let slot = id.0 as usize;
        self.live[slot] = false;
        self.free.push(id.0);
        let take = |c: &mut Vec<Value>| std::mem::replace(&mut c[slot], Value::Null);
        Some(self.columns.iter_mut().map(take).collect())
    }

    fn write(&mut self, slot: usize, row: Row) {
        for (col, v) in self.columns.iter_mut().zip(row) {
            col[slot] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::Str(format!("r{i}").into())]
    }

    #[test]
    fn insert_get_delete() {
        let mut h = Heap::new(2, 32);
        let a = h.insert(row(1));
        let b = h.insert(row(2));
        assert_eq!(h.len(), 2);
        assert_eq!(h.row(a).unwrap()[0], Value::Int(1));
        assert_eq!(h.value(b, 1), &Value::Str("r2".into()));
        assert_eq!(h.delete(a).unwrap(), row(1));
        assert_eq!(h.len(), 1);
        assert!(h.row(a).is_none());
        assert!(!h.is_live(a));
        assert_eq!(h.value(a, 1), &Value::Null, "a dead slot holds no string");
        assert!(h.row(b).is_some());
    }

    #[test]
    fn slot_reuse() {
        let mut h = Heap::new(2, 32);
        let a = h.insert(row(1));
        h.delete(a);
        assert_eq!(h.next_id(), a);
        let b = h.insert(row(2));
        assert_eq!(a, b, "freed slot should be reused");
    }

    #[test]
    fn update_in_place() {
        let mut h = Heap::new(2, 32);
        let a = h.insert(row(1));
        assert!(h.update(a, row(99)));
        assert_eq!(h.row(a).unwrap(), row(99));
        assert!(!h.update(RowId(500), row(0)));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn insert_rejects_a_row_of_another_width() {
        Heap::new(3, 32).insert(row(1));
    }

    #[test]
    fn scan_visits_all_live() {
        let mut h = Heap::new(2, 32);
        for i in 0..10 {
            h.insert(row(i));
        }
        h.delete(RowId(3));
        let ids: Vec<u64> = h.live_ids().map(|r| r.0).collect();
        assert_eq!(ids, [0, 1, 2, 4, 5, 6, 7, 8, 9]);
        let from: Vec<u64> = h.live_ids_from(RowId(3)).map(|r| r.0).collect();
        assert_eq!(from, [4, 5, 6, 7, 8, 9]);
        assert_eq!(h.live_ids_from(RowId(50)).count(), 0);
    }

    #[test]
    fn page_accounting() {
        let mut h = Heap::new(2, 100); // 81 rows per 8192-byte page
        assert_eq!(h.rows_per_page(), 81);
        for i in 0..200 {
            h.insert(row(i));
        }
        assert_eq!(h.page_count(), 3);
    }

    #[test]
    fn empty_heap_has_one_page() {
        let h = Heap::new(2, 64);
        assert_eq!(h.page_count(), 1);
        assert_eq!(h.size_bytes(), PAGE_SIZE);
    }

    /// The heap against a `Vec<Option<Row>>` reference over random
    /// insert/update/delete/append sequences: after every operation the length,
    /// the page count, the live ids and every value agree, an insert
    /// takes the slot freed last (or a new one), and a delete returns the
    /// row the reference held. Salted with `CHAOS_SEED`, so CI's chaos
    /// matrix draws different cases per seed.
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
                let mut heap = Heap::new(width, row_width);
                let mut model: Vec<Option<Row>> = Vec::new();
                let mut freed: Vec<u64> = Vec::new();
                for step in 0..ops {
                    let new_row = |r: u64| -> Row {
                        (0..width)
                            .map(|c| match (r >> (c * 3)) % 4 {
                                0 => Value::Null,
                                1 => Value::Int((r >> 16) as i64 % 50),
                                2 => Value::Float(((r >> 20) % 9) as f64 / 2.0),
                                _ => Value::Str(format!("s{}", (r >> 24) % 7).into()),
                            })
                            .collect()
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
                            let new = new_row(next());
                            let rid = heap.insert(new.clone());
                            prop_assert!(rid == RowId(want), "insert at step {step}: {rid:?}");
                            if want as usize == model.len() {
                                model.push(Some(new));
                            } else {
                                model[want as usize] = Some(new);
                            }
                        }
                        3 | 4 => {
                            let new = new_row(next());
                            let live = model.get(target).is_some_and(Option::is_some);
                            let done = heap.update(RowId(target as u64), new.clone());
                            prop_assert!(done == live, "update at step {step}");
                            if live {
                                model[target] = Some(new);
                            }
                        }
                        5 | 6 => {
                            let want = model.get_mut(target).and_then(Option::take);
                            if want.is_some() {
                                freed.push(target as u64);
                            }
                            let got = heap.delete(RowId(target as u64));
                            prop_assert!(got == want, "delete at step {step}: {got:?} != {want:?}");
                        }
                        _ => {
                            // A batch by column takes new slots, never freed ones.
                            let rows: Vec<Row> =
                                (0..(r >> 8) % 4).map(|_| new_row(next())).collect();
                            let columns = (0..width)
                                .map(|c| rows.iter().map(|row| row[c].clone()).collect())
                                .collect();
                            let first = heap.append_columns(columns);
                            prop_assert_eq!(first, RowId(model.len() as u64));
                            model.extend(rows.into_iter().map(Some));
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
                        prop_assert_eq!(&heap.row(rid), slot);
                        for c in 0..width {
                            let want = slot.as_ref().map_or(&Value::Null, |r| &r[c]);
                            prop_assert!(
                                heap.value(rid, c) == want && heap.column(c)[i] == *want,
                                "value {i}.{c} at step {step}"
                            );
                        }
                    }
                }
                Ok(())
            },
        );
    }
}
