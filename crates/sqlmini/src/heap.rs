//! Heap table storage.
//!
//! Rows live in an append-oriented arena addressed by [`RowId`]. A simple
//! page model (fixed page size, rows-per-page derived from the average row
//! width) fixes the heap's geometry; the executor turns that geometry into
//! the *logical page reads* the paper's validator reasons about.

use crate::types::Row;

/// Identity of a row within a heap. Stable for the row's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

/// Logical page size in bytes, matching SQL Server's 8 KiB pages.
pub const PAGE_SIZE: u64 = 8192;

/// A heap of rows for one table.
#[derive(Debug, Clone)]
pub struct Heap {
    slots: Vec<Option<Row>>,
    free: Vec<u64>,
    live: usize,
    /// Average row width in bytes (from the table schema); fixes the page
    /// geometry for logical-read accounting.
    row_width: u64,
}

impl Heap {
    /// Create an empty heap for rows of the given average width.
    pub fn new(row_width: u64) -> Heap {
        Heap {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            row_width: row_width.max(1),
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Rows that fit on one page.
    pub fn rows_per_page(&self) -> u64 {
        (PAGE_SIZE / self.row_width).max(1)
    }

    /// Number of pages the heap occupies (by slot count, since deleted rows
    /// leave holes until reused — like ghost records).
    pub fn page_count(&self) -> u64 {
        (self.slots.len() as u64)
            .div_ceil(self.rows_per_page())
            .max(1)
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE
    }

    /// Insert a row, returning its id.
    pub fn insert(&mut self, row: Row) -> RowId {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(row);
            RowId(slot)
        } else {
            self.slots.push(Some(row));
            RowId(self.slots.len() as u64 - 1)
        }
    }

    /// Fetch a row by id.
    pub fn peek(&self, id: RowId) -> Option<&Row> {
        self.slots.get(id.0 as usize).and_then(|s| s.as_ref())
    }

    /// Replace a row in place.
    pub fn update(&mut self, id: RowId, row: Row) -> bool {
        match self.slots.get_mut(id.0 as usize) {
            Some(slot @ Some(_)) => {
                *slot = Some(row);
                true
            }
            _ => false,
        }
    }

    /// Delete a row. Returns the old row.
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        match self.slots.get_mut(id.0 as usize) {
            Some(slot @ Some(_)) => {
                self.live -= 1;
                let row = slot.take();
                self.free.push(id.0);
                row
            }
            _ => None,
        }
    }

    /// Iterate live rows in row-id order.
    pub fn scan_quiet(&self) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (RowId(i as u64), r)))
    }

    /// Scan up to `max_rows` live rows starting at slot `start`
    /// (resumable index builds charge their own IO).
    /// Returns the rows and the next slot to continue from (`None` when
    /// the heap is exhausted).
    pub fn scan_slots(&self, start: u64, max_rows: usize) -> (Vec<(RowId, Row)>, Option<u64>) {
        let mut out = Vec::with_capacity(max_rows);
        let mut slot = start as usize;
        while slot < self.slots.len() && out.len() < max_rows {
            if let Some(row) = &self.slots[slot] {
                out.push((RowId(slot as u64), row.clone()));
            }
            slot += 1;
        }
        let next = if slot < self.slots.len() {
            Some(slot as u64)
        } else {
            None
        };
        (out, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::Str(format!("r{i}").into())]
    }

    #[test]
    fn insert_get_delete() {
        let mut h = Heap::new(32);
        let a = h.insert(row(1));
        let b = h.insert(row(2));
        assert_eq!(h.len(), 2);
        assert_eq!(h.peek(a).unwrap()[0], Value::Int(1));
        assert_eq!(h.delete(a).unwrap()[0], Value::Int(1));
        assert_eq!(h.len(), 1);
        assert!(h.peek(a).is_none());
        assert!(h.peek(b).is_some());
    }

    #[test]
    fn slot_reuse() {
        let mut h = Heap::new(32);
        let a = h.insert(row(1));
        h.delete(a);
        let b = h.insert(row(2));
        assert_eq!(a, b, "freed slot should be reused");
    }

    #[test]
    fn update_in_place() {
        let mut h = Heap::new(32);
        let a = h.insert(row(1));
        assert!(h.update(a, row(99)));
        assert_eq!(h.peek(a).unwrap()[0], Value::Int(99));
        assert!(!h.update(RowId(500), row(0)));
    }

    #[test]
    fn scan_visits_all_live() {
        let mut h = Heap::new(32);
        for i in 0..10 {
            h.insert(row(i));
        }
        h.delete(RowId(3));
        let ids: Vec<i64> = h
            .scan_quiet()
            .map(|(_, r)| match r[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ids.len(), 9);
        assert!(!ids.contains(&3));
    }

    #[test]
    fn page_accounting() {
        let mut h = Heap::new(100); // 81 rows per 8192-byte page
        assert_eq!(h.rows_per_page(), 81);
        for i in 0..200 {
            h.insert(row(i));
        }
        assert_eq!(h.page_count(), 3);
    }

    #[test]
    fn empty_heap_has_one_page() {
        let h = Heap::new(64);
        assert_eq!(h.page_count(), 1);
        assert_eq!(h.size_bytes(), PAGE_SIZE);
    }
}
