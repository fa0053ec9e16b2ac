//! An in-memory B+ tree of index entries, with real node splits, borrows,
//! and merges.
//!
//! Secondary indexes in [`crate::index`] are built on this tree. Unlike a
//! toy sorted-map wrapper, this implementation models the *physical* shape
//! of an index — node fanout, tree depth, and the number of nodes touched
//! per operation — because the engine's "logical reads" metric (which the
//! paper's validator compares before/after index changes) is literally the
//! count of B+ tree / heap pages visited.
//!
//! An entry is `width` values — the index's key values, then its included
//! values — and a row id. Entries order (and compare equal) by their first
//! `key_len` values under `Value`'s order, then the row id, so duplicate
//! index keys are supported and the included values are cargo.
//!
//! A node holds its entries column-major, in the layout a heap holds its
//! rows in ([`crate::heap`]): a slice of typed runs ([`crate::column`]),
//! one per column — `i64`, `f64`, `i32`, packed bits or `u32` string
//! codes, a null bitmap beside each — and one run of row ids. A leaf has
//! a run for every column, an internal node one for each key column of
//! its separators. Each column of the tree has the type it is made with
//! (an index's: its table columns' declared types), in every node, and
//! every value inserted must fit it. The tree keeps one dictionary per
//! column, so a string code names the same string in every leaf, and a
//! leaf's runs with the tree's dictionaries read as a heap's columns do.
//! A lookup's key — a seek's prefix and bounds, a maintenance key — is
//! compiled once against the columns' types into a `Probe`, which orders
//! stored entries exactly as `Value::cmp` and the row id would, without
//! building a `Value`. `Value`'s order is a total order, so the entries
//! equal to a prefix are in order in the columns after it, and a walk
//! over a range ends at the first entry past it.

use crate::column::{At, Column, Dict, Operand, Typed};
use crate::heap::RowId;
use crate::types::{Value, ValueType};
use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::{Bound, Range, RangeBounds};

/// Index of a node in the tree's arena.
type NodeId = usize;

const NO_NODE: NodeId = usize::MAX;

/// An entry's ordering key, or a bound on one, as values: key values and a
/// row id. The values may be a prefix of the key columns; a prefix orders
/// before every key that extends it.
type Key<'a> = (&'a [Value], RowId);

/// `a` against `b` as the tree orders keys.
fn cmp_key(a: Key<'_>, b: Key<'_>) -> Ordering {
    a.0.cmp(b.0).then(a.1.cmp(&b.1))
}

/// A key compiled against the tree's key columns (`BTree::probe`):
/// stored entries order against it exactly as their key values and row
/// id order against its values and row id (`Key`).
pub struct Probe<'v> {
    ops: Vec<Operand<'v>>,
    /// Whether the key has a value for every key column, so that the row
    /// id is compared next; if not, an entry that matches the values it
    /// has orders after it.
    whole: bool,
    rid: RowId,
}

impl<'v> Probe<'v> {
    fn new(ops: Vec<Operand<'v>>, key_len: usize, rid: RowId) -> Probe<'v> {
        debug_assert!(ops.len() <= key_len, "a key longer than the key columns");
        Probe {
            whole: ops.len() == key_len,
            ops,
            rid,
        }
    }

    /// Number of key values.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// The operand for key column `j`.
    pub(crate) fn op(&self, j: usize) -> &Operand<'v> {
        &self.ops[j]
    }
}

/// Entries stored column-major: one typed run per column (all of a leaf's
/// columns; an internal node's key columns), one row id per entry.
#[derive(Debug, Clone)]
pub struct Run {
    cols: Vec<Typed>,
    rids: Vec<RowId>,
}

impl Run {
    /// An empty run of columns of `types`, with room for `capacity`
    /// entries.
    fn new(types: &[ValueType], capacity: usize) -> Run {
        Run {
            cols: types.iter().map(|&ty| Typed::new(ty, capacity)).collect(),
            rids: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rids.len()
    }

    /// Entry `i`'s first `n` values.
    fn values(&self, i: usize, n: usize, dicts: &[Dict]) -> Vec<Value> {
        (0..n).map(|j| self.cols[j].value(i, &dicts[j])).collect()
    }

    /// How entry `i`'s key orders against `probe`.
    #[inline]
    fn cmp(&self, i: usize, probe: &Probe, dicts: &[Dict]) -> Ordering {
        for (j, op) in probe.ops.iter().enumerate() {
            let o = self.cols[j].cmp_at(i, op, &dicts[j]);
            if o != Ordering::Equal {
                return o;
            }
        }
        if probe.whole {
            self.rids[i].cmp(&probe.rid)
        } else {
            Ordering::Greater
        }
    }

    /// `Ok(i)` if entry `i`'s key equals `probe`, else `Err` of where
    /// `probe` would go.
    fn search(&self, probe: &Probe, dicts: &[Dict]) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.cmp(mid, probe, dicts) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Where a descent for `probe` goes: past every separator not
    /// greater than it.
    fn child_for(&self, probe: &Probe, dicts: &[Dict]) -> usize {
        match self.search(probe, dicts) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Write the entry `entry(j)` for each column `j` at position `i`,
    /// before the entry there or over it; every value must fit its column.
    fn store<'v>(
        &mut self,
        at: At,
        entry: &dyn Fn(usize) -> &'v Value,
        rid: RowId,
        dicts: &mut [Dict],
    ) {
        for (j, (run, dict)) in self.cols.iter_mut().zip(dicts).enumerate() {
            run.store(at, entry(j), dict);
        }
        at.vec(&mut self.rids, rid);
    }

    fn remove(&mut self, i: usize) {
        self.cols.iter_mut().for_each(|c| c.remove(i));
        self.rids.remove(i);
    }

    /// Write a copy of entry `j` of `src` — as many of its columns as
    /// this run has — where `at` says.
    fn copy(&mut self, at: At, src: &Run, j: usize) {
        for (run, from) in self.cols.iter_mut().zip(&src.cols) {
            run.copy(at, from, j);
        }
        at.vec(&mut self.rids, src.rids[j]);
    }

    /// Entry `i`'s first `k` columns, as a run of one entry: a separator.
    fn key_of(&self, i: usize, k: usize) -> Run {
        let mut key = Run {
            cols: (self.cols[..k].iter())
                .map(|c| Typed::new(c.ty(), 1))
                .collect(),
            rids: Vec::with_capacity(1),
        };
        key.copy(At::End, self, i);
        key
    }

    /// Entries `at..` moved into a new run with room for `cap` entries.
    fn split_off(&mut self, at: usize, cap: usize) -> Run {
        let mut rids = Vec::with_capacity(cap);
        rids.extend(self.rids.drain(at..));
        Run {
            cols: self.cols.iter_mut().map(|c| c.split_off(at, cap)).collect(),
            rids,
        }
    }

    fn append(&mut self, other: &mut Run) {
        for (run, o) in self.cols.iter_mut().zip(&mut other.cols) {
            run.append(o);
        }
        self.rids.append(&mut other.rids);
    }

    /// Move entry `i` of `self` to position `j` of `to`.
    fn move_entry(&mut self, i: usize, to: &mut Run, j: usize) {
        to.copy(At::Before(j), self, i);
        self.remove(i);
    }

    /// Exchange entry `i` of `self` with entry `j` of `other`, two runs of
    /// the same columns.
    fn swap_entry(&mut self, i: usize, other: &mut Run, j: usize) {
        let mine = self.key_of(i, self.cols.len());
        self.copy(At::Over(i), other, j);
        other.copy(At::Over(j), &mine, 0);
    }
}

#[derive(Debug, Clone)]
enum Node {
    Internal {
        /// `keys[i]` divides `children[i]` from `children[i + 1]`: greater
        /// than every key under the former, no greater than any under the
        /// latter. A bulk build or a split sets it to the smallest key of
        /// the right subtree; a later `remove` of that key leaves it stale
        /// but still dividing. The key columns only.
        keys: Run,
        children: Vec<NodeId>,
    },
    Leaf {
        /// Every column.
        entries: Run,
        next: NodeId,
        prev: NodeId,
    },
    /// Slot on the free list.
    Free { next_free: NodeId },
}

/// An in-memory B+ tree of index entries.
///
/// `fanout` is the maximum number of children of an internal node (and the
/// maximum number of entries in a leaf). Nodes split at `fanout` and merge
/// below `fanout / 2`.
#[derive(Debug, Clone)]
pub struct BTree {
    arena: Vec<Node>,
    root: NodeId,
    free_head: NodeId,
    len: usize,
    fanout: usize,
    height: usize,
    /// An empty run of each of an entry's columns (the key columns, then
    /// the included columns), of the type every node's run of the column
    /// has, and the dictionary of each.
    types: Vec<Typed>,
    dicts: Vec<Dict>,
    /// How many of an entry's values order it.
    key_len: usize,
    /// Logical node visits by read operations; interior mutability because
    /// reads take `&self`.
    read_visits: Cell<u64>,
    /// Logical node visits by write operations.
    write_visits: u64,
}

impl BTree {
    /// Create an empty tree with the given maximum node fanout (>= 4) for
    /// entries of one value of each of `types`, the first `key_len` of
    /// which order them.
    pub fn new(fanout: usize, types: &[ValueType], key_len: usize) -> BTree {
        BTree::with_cols(fanout, types, vec![Dict::default(); types.len()], key_len)
    }

    fn with_cols(fanout: usize, types: &[ValueType], dicts: Vec<Dict>, key_len: usize) -> BTree {
        assert!(fanout >= 4, "fanout must be at least 4");
        assert!(key_len <= types.len(), "more key values than values");
        let root = Node::Leaf {
            entries: Run::new(types, 0),
            next: NO_NODE,
            prev: NO_NODE,
        };
        BTree {
            arena: vec![root],
            root: 0,
            free_head: NO_NODE,
            len: 0,
            fanout,
            height: 1,
            types: types.iter().map(|&ty| Typed::new(ty, 0)).collect(),
            dicts,
            key_len,
            read_visits: Cell::new(0),
            write_visits: 0,
        }
    }

    /// Build a tree bottom-up whose `i`-th entry is slot `order[i]` of
    /// every column of `sources` (its key columns, then its included
    /// columns) with row id `rid(order[i])`; the entries must already be
    /// in strictly rising key order. Each tree column takes its source's
    /// type and shares its dictionary, and every leaf copies its slots of
    /// a column in one gather: no `Value` is built.
    ///
    /// Leaves are written left to right and linked both ways, then each
    /// internal level from the smallest keys of the level below, every
    /// node `fill × fanout` full (rounded up, and evened out so that no
    /// node is left under half full). No entry is compared against another
    /// and nothing descends from a root, which is what makes this the way
    /// to materialise an index over rows that already exist;
    /// `write_visits` stays 0.
    ///
    /// The result is a tree `insert` could have produced: every non-root
    /// leaf holds `fanout / 2 ..= fanout - 1` entries and every non-root
    /// internal node `fanout / 2 ..= fanout` children. A level too short
    /// for nodes at `fill` is therefore cut into fewer, fuller ones, and
    /// entries too few for two half-full leaves make one root leaf
    /// whatever `fill` says.
    pub fn from_columns(
        fanout: usize,
        fill: f64,
        key_len: usize,
        sources: &[&Column],
        order: &[u32],
        rid: impl Fn(u32) -> RowId,
    ) -> BTree {
        let sources: Vec<_> = sources.iter().map(|c| c.parts()).collect();
        BTree::from_runs(fanout, fill, key_len, &sources, order, rid)
    }

    /// [`from_columns`](Self::from_columns) from runs and their
    /// dictionaries: a heap's columns, as the index build hands them.
    pub(crate) fn from_runs(
        fanout: usize,
        fill: f64,
        key_len: usize,
        sources: &[(&Typed, &Dict)],
        order: &[u32],
        rid: impl Fn(u32) -> RowId,
    ) -> BTree {
        let types: Vec<ValueType> = sources.iter().map(|(run, _)| run.ty()).collect();
        let dicts = sources.iter().map(|(_, dict)| (*dict).clone()).collect();
        let mut t = BTree::with_cols(fanout, &types, dicts, key_len);
        let k = key_len;
        let n = order.len();
        if n == 0 {
            return t;
        }
        let min = fanout / 2;
        let per_node = ((fanout as f64 * fill).ceil() as usize).clamp(min, fanout - 1);
        // `n` items spread evenly over as many nodes as `per_node` asks
        // for, but never so many that a node falls under `min`.
        let spread = |n: usize| {
            let nodes = n.div_ceil(per_node).min(n / min).max(1);
            (0..nodes).map(move |i| n / nodes + usize::from(i < n % nodes))
        };

        t.arena.clear();
        t.len = n;
        // One level at a time: the smallest key under each node, and the
        // node.
        let mut firsts = Run::new(&types[..k], 0);
        let mut ids: Vec<NodeId> = Vec::new();
        let mut at = 0;
        for size in spread(n) {
            // A leaf is allocated as the page it models, room for `fanout`
            // entries: the maintenance inserts the fill leaves room for
            // then never move it.
            let slots = &order[at..at + size];
            let mut leaf = Run::new(&types, fanout);
            for (run, (src, _)) in leaf.cols.iter_mut().zip(sources) {
                run.extend_from(src, slots);
            }
            leaf.rids.extend(slots.iter().map(|&s| rid(s)));
            debug_assert!(
                {
                    let key = |run: &Run, i| (run.values(i, k, &t.dicts), run.rids[i]);
                    let last_before = match t.arena.last() {
                        Some(Node::Leaf { entries, .. }) => Some(key(entries, entries.len() - 1)),
                        _ => None,
                    };
                    let keys = last_before
                        .into_iter()
                        .chain((0..size).map(|i| key(&leaf, i)));
                    let keys: Vec<_> = keys.collect();
                    keys.is_sorted_by(|a, b| cmp_key((&a.0, a.1), (&b.0, b.1)).is_lt())
                },
                "from_columns: keys must be strictly rising"
            );
            let id = t.arena.len();
            firsts.copy(At::End, &leaf, 0);
            ids.push(id);
            t.arena.push(Node::Leaf {
                entries: leaf,
                next: id + 1,
                prev: if id == 0 { NO_NODE } else { id - 1 },
            });
            at += size;
        }
        if let Some(Node::Leaf { next, .. }) = t.arena.last_mut() {
            *next = NO_NODE;
        }
        while ids.len() > 1 {
            let mut above = Run::new(&types[..k], 0);
            let mut above_ids = Vec::new();
            let mut at = 0;
            for size in spread(ids.len()) {
                let mut keys = Run::new(&types[..k], size - 1);
                (at + 1..at + size).for_each(|i| keys.copy(At::End, &firsts, i));
                above.copy(At::End, &firsts, at);
                above_ids.push(t.arena.len());
                t.arena.push(Node::Internal {
                    keys,
                    children: ids[at..at + size].to_vec(),
                });
                at += size;
            }
            firsts = above;
            ids = above_ids;
            t.height += 1;
        }
        t.root = ids[0];
        t
    }

    /// Maximum children of an internal node; a leaf holds one entry fewer.
    pub(crate) fn fanout(&self) -> usize {
        self.fanout
    }

    /// Values per entry.
    pub(crate) fn width(&self) -> usize {
        self.dicts.len()
    }

    /// How many of an entry's values order it.
    pub(crate) fn key_len(&self) -> usize {
        self.key_len
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 for a lone leaf).
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// An empty run of each column, of its type.
    pub(crate) fn types(&self) -> &[Typed] {
        &self.types
    }

    /// The dictionary each column's string codes index.
    pub(crate) fn dicts(&self) -> &[Dict] {
        &self.dicts
    }

    /// Number of live (non-free) nodes — the tree's "page count".
    pub(crate) fn node_count(&self) -> usize {
        self.arena
            .iter()
            .filter(|n| !matches!(n, Node::Free { .. }))
            .count()
    }

    /// Total node visits by read operations since creation.
    pub(crate) fn read_visits(&self) -> u64 {
        self.read_visits.get()
    }

    /// Total node visits by write operations since creation.
    pub(crate) fn write_visits(&self) -> u64 {
        self.write_visits
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        if self.free_head != NO_NODE {
            let id = self.free_head;
            if let Node::Free { next_free } = self.arena[id] {
                self.free_head = next_free;
            }
            self.arena[id] = node;
            id
        } else {
            self.arena.push(node);
            self.arena.len() - 1
        }
    }

    fn free(&mut self, id: NodeId) {
        self.arena[id] = Node::Free {
            next_free: self.free_head,
        };
        self.free_head = id;
    }

    fn bump_read(&self) {
        self.read_visits.set(self.read_visits.get() + 1);
    }

    /// `key` (at most `key_len` values) and `rid`, compiled against the
    /// key columns' types. The operands borrow the values.
    pub(crate) fn probe<'v>(
        &self,
        key: impl IntoIterator<Item = &'v Value>,
        rid: RowId,
    ) -> Probe<'v> {
        let ops = (key.into_iter().enumerate())
            .map(|(j, v)| self.operand(j, v))
            .collect();
        Probe::new(ops, self.key_len, rid)
    }

    /// `probe` with `v` after its values, as the next key column's.
    pub(crate) fn probe_then<'v>(&self, probe: Probe<'v>, v: &'v Value) -> Probe<'v> {
        let mut ops = probe.ops;
        ops.push(self.operand(ops.len(), v));
        Probe::new(ops, self.key_len, probe.rid)
    }

    /// `v` compiled against column `j`.
    pub(crate) fn operand<'v>(&self, j: usize, v: &'v Value) -> Operand<'v> {
        Operand::new(self.types[j].ty(), &self.dicts[j], v)
    }

    /// How entry `i` of `run`, a leaf of this tree, orders against
    /// operand `op` (compiled for key column `j`) in column `j`.
    pub(crate) fn cmp_col(&self, run: &Run, i: usize, j: usize, op: &Operand) -> Ordering {
        run.cols[j].cmp_at(i, op, &self.dicts[j])
    }

    /// The values of the entry whose key is `key`. Counts one read visit
    /// per level descended. The engine reads the tree only through
    /// [`SecondaryIndex::seek_visit`](crate::index::SecondaryIndex::seek_visit);
    /// `get`, [`range`](Self::range) and [`iter`](Self::iter) serve tests
    /// and models.
    pub fn get(&self, key: &[Value], rid: RowId) -> Option<Vec<Value>> {
        let probe = self.probe(key, rid);
        let leaf = self.descend_to_leaf(&probe);
        match &self.arena[leaf] {
            Node::Leaf { entries, .. } => (entries.search(&probe, &self.dicts).ok())
                .map(|i| entries.values(i, self.width(), &self.dicts)),
            _ => unreachable!("descend_to_leaf returned non-leaf"),
        }
    }

    fn descend_to_leaf(&self, probe: &Probe) -> NodeId {
        let mut node = self.root;
        loop {
            self.bump_read();
            match &self.arena[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    node = children[keys.child_for(probe, &self.dicts)];
                }
                Node::Free { .. } => unreachable!("descended into freed node"),
            }
        }
    }

    /// Insert an entry: `entry(j)` for each of the `width` columns, the
    /// first `key_len` of which order it with `rid`. An entry whose key is
    /// already present is overwritten, included values too, and its old
    /// values are returned. Counts one write visit per node touched.
    ///
    /// # Panics
    /// If a value does not fit its column: it is neither NULL nor a value
    /// of the column's type that is not a NaN.
    pub fn insert<'v>(
        &mut self,
        entry: impl Fn(usize) -> &'v Value,
        rid: RowId,
    ) -> Option<Vec<Value>> {
        let probe = self.probe((0..self.key_len).map(&entry), rid);
        let root = self.root;
        match self.insert_rec(root, &probe, &entry, rid) {
            InsertResult::Replaced(old) => Some(old),
            InsertResult::Inserted => {
                self.len += 1;
                None
            }
            InsertResult::Split(keys, right) => {
                // Grow the tree by one level.
                let old_root = self.root;
                self.root = self.alloc(Node::Internal {
                    keys,
                    children: vec![old_root, right],
                });
                self.height += 1;
                self.len += 1;
                None
            }
        }
    }

    fn insert_rec<'v>(
        &mut self,
        node: NodeId,
        probe: &Probe,
        entry: &dyn Fn(usize) -> &'v Value,
        rid: RowId,
    ) -> InsertResult {
        self.write_visits += 1;
        let (fanout, dicts) = (self.fanout, &mut self.dicts);
        match &mut self.arena[node] {
            Node::Leaf { entries, .. } => {
                match entries.search(probe, dicts) {
                    Ok(i) => {
                        // The new entry replaces the stored one whole: keys
                        // that compare equal may still differ in what they
                        // carry (an index entry's included values).
                        let old = entries.values(i, dicts.len(), dicts);
                        entries.store(At::Over(i), entry, rid, dicts);
                        return InsertResult::Replaced(old);
                    }
                    Err(i) => entries.store(At::Before(i), entry, rid, dicts),
                }
                if entries.len() >= fanout {
                    let (sep, right) = self.split_leaf(node);
                    InsertResult::Split(sep, right)
                } else {
                    InsertResult::Inserted
                }
            }
            Node::Internal { keys, children } => {
                let idx = keys.child_for(probe, dicts);
                let child = children[idx];
                match self.insert_rec(child, probe, entry, rid) {
                    InsertResult::Split(sep, right) => {
                        if let Node::Internal { keys, children } = &mut self.arena[node] {
                            keys.copy(At::Before(idx), &sep, 0);
                            children.insert(idx + 1, right);
                            if keys.len() >= fanout {
                                let (sep, right) = self.split_internal(node);
                                return InsertResult::Split(sep, right);
                            }
                        }
                        InsertResult::Inserted
                    }
                    other => other,
                }
            }
            Node::Free { .. } => unreachable!("insert into freed node"),
        }
    }

    fn split_leaf(&mut self, node: NodeId) -> (Run, NodeId) {
        let (k, fanout) = (self.key_len, self.fanout);
        let (right_entries, old_next) = match &mut self.arena[node] {
            Node::Leaf { entries, next, .. } => {
                let mid = entries.len() / 2;
                (entries.split_off(mid, fanout), *next)
            }
            _ => unreachable!(),
        };
        let sep = right_entries.key_of(0, k);
        let right = self.alloc(Node::Leaf {
            entries: right_entries,
            next: old_next,
            prev: node,
        });
        if old_next != NO_NODE {
            if let Node::Leaf { prev, .. } = &mut self.arena[old_next] {
                *prev = right;
            }
        }
        if let Node::Leaf { next, .. } = &mut self.arena[node] {
            *next = right;
        }
        (sep, right)
    }

    fn split_internal(&mut self, node: NodeId) -> (Run, NodeId) {
        let (sep, right_keys, right_children) = match &mut self.arena[node] {
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid + 1, keys.len() - mid - 1);
                // The middle key moves up; it leaves the left node.
                let sep = keys.split_off(mid, 1);
                let right_children = children.split_off(mid + 1);
                (sep, right_keys, right_children)
            }
            _ => unreachable!(),
        };
        let right = self.alloc(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        (sep, right)
    }

    /// Remove the entry whose key is `key`; whether there was one.
    /// Rebalances the tree by borrowing from or merging with siblings.
    pub fn remove(&mut self, key: &[Value], rid: RowId) -> bool {
        let probe = self.probe(key, rid);
        let root = self.root;
        let removed = self.remove_rec(root, &probe);
        if removed {
            self.len -= 1;
            // Shrink the root if it became a pass-through internal node.
            if let Node::Internal { keys, children } = &self.arena[self.root] {
                if keys.len() == 0 {
                    debug_assert_eq!(children.len(), 1);
                    let new_root = children[0];
                    let old_root = self.root;
                    self.root = new_root;
                    self.free(old_root);
                    self.height -= 1;
                }
            }
        }
        removed
    }

    fn remove_rec(&mut self, node: NodeId, probe: &Probe) -> bool {
        self.write_visits += 1;
        match &mut self.arena[node] {
            Node::Leaf { entries, .. } => match entries.search(probe, &self.dicts) {
                Ok(i) => {
                    entries.remove(i);
                    true
                }
                Err(_) => false,
            },
            Node::Internal { keys, children } => {
                let idx = keys.child_for(probe, &self.dicts);
                let child = children[idx];
                let removed = self.remove_rec(child, probe);
                if removed {
                    self.rebalance_child(node, idx);
                }
                removed
            }
            Node::Free { .. } => unreachable!("remove from freed node"),
        }
    }

    fn node_size(&self, id: NodeId) -> usize {
        match &self.arena[id] {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { children, .. } => children.len(),
            Node::Free { .. } => 0,
        }
    }

    /// After a removal under `parent.children[idx]`, restore the minimum
    /// occupancy invariant by borrowing from a sibling or merging.
    fn rebalance_child(&mut self, parent: NodeId, idx: usize) {
        let min = self.fanout / 2;
        let child = match &self.arena[parent] {
            Node::Internal { children, .. } => children[idx],
            _ => unreachable!(),
        };
        if self.node_size(child) >= min {
            return;
        }
        let (left_sib, right_sib) = match &self.arena[parent] {
            Node::Internal { children, .. } => (
                idx.checked_sub(1).map(|i| children[i]),
                children.get(idx + 1).copied(),
            ),
            _ => unreachable!(),
        };
        // Prefer borrowing (cheaper than merging).
        if let Some(left) = left_sib {
            if self.node_size(left) > min {
                self.borrow_from_left(parent, idx, left, child);
                return;
            }
        }
        if let Some(right) = right_sib {
            if self.node_size(right) > min {
                self.borrow_from_right(parent, idx, child, right);
                return;
            }
        }
        // Merge with a sibling.
        if let Some(left) = left_sib {
            self.merge_children(parent, idx - 1, left, child);
        } else if let Some(right) = right_sib {
            self.merge_children(parent, idx, child, right);
        }
    }

    /// Take a node out of the arena to work on it beside its parent, until
    /// it is stored back.
    fn take(&mut self, id: NodeId) -> Node {
        std::mem::replace(&mut self.arena[id], Node::Free { next_free: NO_NODE })
    }

    fn borrow_from_left(&mut self, parent: NodeId, idx: usize, left: NodeId, child: NodeId) {
        self.write_visits += 2;
        let mut l = self.take(left);
        let mut c = self.take(child);
        let Node::Internal { keys: sep, .. } = &mut self.arena[parent] else {
            unreachable!()
        };
        match (&mut l, &mut c) {
            (Node::Leaf { entries: le, .. }, Node::Leaf { entries: ce, .. }) => {
                le.move_entry(le.len() - 1, ce, 0);
                sep.copy(At::Over(idx - 1), ce, 0);
            }
            (
                Node::Internal {
                    keys: lk,
                    children: lc,
                },
                Node::Internal {
                    keys: ck,
                    children: cc,
                },
            ) => {
                // The left sibling's last key goes up, the separator down.
                let last = lk.len() - 1;
                lk.swap_entry(last, sep, idx - 1);
                lk.move_entry(last, ck, 0);
                cc.insert(0, lc.pop().expect("left non-empty"));
            }
            _ => unreachable!("sibling kind mismatch"),
        }
        self.arena[left] = l;
        self.arena[child] = c;
    }

    fn borrow_from_right(&mut self, parent: NodeId, idx: usize, child: NodeId, right: NodeId) {
        self.write_visits += 2;
        let mut c = self.take(child);
        let mut r = self.take(right);
        let Node::Internal { keys: sep, .. } = &mut self.arena[parent] else {
            unreachable!()
        };
        match (&mut c, &mut r) {
            (Node::Leaf { entries: ce, .. }, Node::Leaf { entries: re, .. }) => {
                re.move_entry(0, ce, ce.len());
                sep.copy(At::Over(idx), re, 0);
            }
            (
                Node::Internal {
                    keys: ck,
                    children: cc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                // The right sibling's first key goes up, the separator down.
                rk.swap_entry(0, sep, idx);
                rk.move_entry(0, ck, ck.len());
                cc.push(rc.remove(0));
            }
            _ => unreachable!("sibling kind mismatch"),
        }
        self.arena[child] = c;
        self.arena[right] = r;
    }

    /// Merge `right` into `left`; both are children of `parent` separated by
    /// `parent.keys[sep_idx]`.
    fn merge_children(&mut self, parent: NodeId, sep_idx: usize, left: NodeId, right: NodeId) {
        self.write_visits += 2;
        let mut l = self.take(left);
        let right_node = self.take(right);
        let Node::Internal {
            keys: sep,
            children,
        } = &mut self.arena[parent]
        else {
            unreachable!()
        };
        children.remove(sep_idx + 1);
        match (&mut l, right_node) {
            (
                Node::Leaf { entries, next, .. },
                Node::Leaf {
                    entries: mut r_entries,
                    next: r_next,
                    ..
                },
            ) => {
                sep.remove(sep_idx);
                entries.append(&mut r_entries);
                *next = r_next;
                if let Some(Node::Leaf { prev, .. }) = self.arena.get_mut(r_next) {
                    *prev = left;
                }
            }
            (
                Node::Internal { keys, children },
                Node::Internal {
                    keys: mut r_keys,
                    children: mut r_children,
                },
            ) => {
                // The separator comes down between the two key runs.
                sep.move_entry(sep_idx, keys, keys.len());
                keys.append(&mut r_keys);
                children.append(&mut r_children);
            }
            _ => unreachable!("sibling kind mismatch"),
        }
        self.arena[left] = l;
        self.free(right);
    }

    /// Hand the leaves to `f` in key order, from where a lower bound would
    /// be found (the leftmost entry when it is unbounded): `f(run, pos)`
    /// gets each leaf's entries and the first position to read — `pos` in
    /// the first leaf, 0 after — and returns whether to go on to the next
    /// leaf. Counts a read visit for each level of the descent and for
    /// every step from a leaf to the next, the step off the last leaf
    /// included.
    pub(crate) fn walk<'a>(
        &'a self,
        from: Bound<&Probe>,
        mut f: impl FnMut(&'a Run, usize) -> bool,
    ) {
        let (mut leaf, mut pos) = match from {
            Bound::Unbounded => (self.leftmost_leaf(), 0),
            Bound::Included(p) | Bound::Excluded(p) => {
                let leaf = self.descend_to_leaf(p);
                let pos = match &self.arena[leaf] {
                    Node::Leaf { entries, .. } => match entries.search(p, &self.dicts) {
                        Ok(i) if matches!(from, Bound::Excluded(_)) => i + 1,
                        Ok(i) | Err(i) => i,
                    },
                    _ => unreachable!(),
                };
                (leaf, pos)
            }
        };
        while leaf != NO_NODE {
            let Node::Leaf { entries, next, .. } = &self.arena[leaf] else {
                unreachable!("a walk reached a non-leaf")
            };
            if !f(entries, pos) {
                return;
            }
            self.bump_read();
            (leaf, pos) = (*next, 0);
        }
    }

    /// The entries in key order over the given bounds, each as its values
    /// and row id, collected. Counts read visits as `walk` does. For tests
    /// and models (see [`get`](Self::get)).
    pub fn range<'k>(
        &self,
        lo: Bound<Key<'k>>,
        hi: Bound<Key<'k>>,
    ) -> std::vec::IntoIter<(Vec<Value>, RowId)> {
        let from = lo.map(|(k, rid)| self.probe(k, rid));
        // The walk starts at the first entry within `lo`; the first entry
        // past `hi` ends it.
        let mut out = Vec::new();
        self.walk(from.as_ref(), |run, pos| {
            for i in pos..run.len() {
                let key = run.values(i, self.key_len, &self.dicts);
                if !(Bound::Unbounded, hi).contains(&(&key[..], run.rids[i])) {
                    return false;
                }
                out.push((run.values(i, self.width(), &self.dicts), run.rids[i]));
            }
            true
        });
        out.into_iter()
    }

    /// All entries in key order. For tests and models.
    pub fn iter(&self) -> std::vec::IntoIter<(Vec<Value>, RowId)> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    fn leftmost_leaf(&self) -> NodeId {
        let mut node = self.root;
        loop {
            self.bump_read();
            match &self.arena[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { children, .. } => node = children[0],
                Node::Free { .. } => unreachable!(),
            }
        }
    }

    /// Validate every structural invariant; O(n). What is checked:
    /// occupancy (a non-root leaf holds `fanout / 2 ..= fanout - 1`
    /// entries, a non-root internal node `fanout / 2 ..= fanout`
    /// children, an internal root at least two); order (keys strictly
    /// rising across the whole tree, every separator greater than all
    /// keys under its left child and no greater than any under its
    /// right); shape (every leaf at depth `height`, a run per column in
    /// every leaf and per key column in every internal node, each of its
    /// column's type, a value per entry, no NaN, every string code in its
    /// column's dictionary); leaf links (`next` from the leftmost leaf
    /// visits exactly the leaves reachable from the root, in order, and
    /// `prev` mirrors it); bookkeeping (`len` entries, `node_count` nodes
    /// reachable, every other arena slot on the free list).
    pub fn check_invariants(&self) -> Result<(), String> {
        let k = self.key_len;
        let mut leaves = Vec::new();
        let mut internals = 0usize;
        self.check_subtree(self.root, 1, None, None, &mut leaves, &mut internals)?;

        let mut count = 0usize;
        let mut last: Option<(Vec<Value>, RowId)> = None;
        let mut chain = Vec::with_capacity(leaves.len());
        let (mut leaf, mut prev_leaf) = (leaves[0], NO_NODE);
        while leaf != NO_NODE {
            let Some(Node::Leaf {
                entries,
                next,
                prev,
            }) = self.arena.get(leaf)
            else {
                return Err(format!("leaf chain hit non-leaf {leaf}"));
            };
            if *prev != prev_leaf {
                return Err(format!("leaf {leaf} prev link broken"));
            }
            if chain.len() == leaves.len() {
                return Err(format!("leaf chain runs past the last leaf to {leaf}"));
            }
            for i in 0..entries.len() {
                let key = (entries.values(i, k, &self.dicts), entries.rids[i]);
                if let Some(l) = &last {
                    if cmp_key((&l.0, l.1), (&key.0, key.1)) != Ordering::Less {
                        return Err(format!("keys out of order at {key:?}"));
                    }
                }
                last = Some(key);
                count += 1;
            }
            chain.push(leaf);
            prev_leaf = leaf;
            leaf = *next;
        }
        if chain != leaves {
            return Err(format!(
                "leaf chain {chain:?} is not the leaves under the root {leaves:?}"
            ));
        }
        if count != self.len {
            return Err(format!(
                "len mismatch: counted {count}, recorded {}",
                self.len
            ));
        }
        let reachable = leaves.len() + internals;
        if reachable != self.node_count() {
            return Err(format!(
                "{reachable} nodes reachable, {} live in the arena",
                self.node_count()
            ));
        }
        let mut free = 0usize;
        let mut slot = self.free_head;
        while slot != NO_NODE {
            let Some(Node::Free { next_free }) = self.arena.get(slot) else {
                return Err(format!("free list hit live node {slot}"));
            };
            free += 1;
            if free > self.arena.len() {
                return Err("free list loops".into());
            }
            slot = *next_free;
        }
        if reachable + free != self.arena.len() {
            return Err(format!(
                "{reachable} reachable + {free} free != {} arena slots",
                self.arena.len()
            ));
        }
        Ok(())
    }

    /// Whether `run` holds a run for each of the first `n` columns, each
    /// of its column's type, well formed, a value per entry.
    fn check_run(&self, run: &Run, n: usize) -> bool {
        let fits = |((t, shape), dict): ((&Typed, &Typed), &Dict)| {
            t.ty() == shape.ty() && t.len() == run.len() && t.is_well_formed(dict)
        };
        run.cols.len() == n && (run.cols.iter().zip(&self.types).zip(&self.dicts)).all(fits)
    }

    /// `check_invariants` below one node: every key in `lo ..< hi` (the
    /// separators on the way down), occupancy, depth, columns. Appends the
    /// leaves in key order.
    fn check_subtree(
        &self,
        node: NodeId,
        depth: usize,
        lo: Option<&(Vec<Value>, RowId)>,
        hi: Option<&(Vec<Value>, RowId)>,
        leaves: &mut Vec<NodeId>,
        internals: &mut usize,
    ) -> Result<(), String> {
        let k = self.key_len;
        let key_of = |run: &Run, i: usize| (run.values(i, k, &self.dicts), run.rids[i]);
        let cmp =
            |a: &(Vec<Value>, RowId), b: &(Vec<Value>, RowId)| cmp_key((&a.0, a.1), (&b.0, b.1));
        let is_root = node == self.root;
        let min = self.fanout / 2;
        match self.arena.get(node) {
            Some(Node::Leaf { entries, .. }) => {
                if depth != self.height {
                    return Err(format!(
                        "leaf {node} at depth {depth}, height {}",
                        self.height
                    ));
                }
                let n = entries.len();
                if !self.check_run(entries, self.width()) {
                    return Err(format!("leaf {node}: columns do not hold {n} entries"));
                }
                if n >= self.fanout || (!is_root && n < min) {
                    return Err(format!(
                        "leaf {node} holds {n} entries, fanout {}",
                        self.fanout
                    ));
                }
                if n > 0 {
                    let (first, last) = (key_of(entries, 0), key_of(entries, n - 1));
                    if lo.is_some_and(|lo| cmp(&first, lo) == Ordering::Less) {
                        return Err(format!("leaf {node}: {first:?} under separator {lo:?}"));
                    }
                    if hi.is_some_and(|hi| cmp(&last, hi) != Ordering::Less) {
                        return Err(format!("leaf {node}: {last:?} not under separator {hi:?}"));
                    }
                }
                leaves.push(node);
                Ok(())
            }
            Some(Node::Internal { keys, children }) => {
                *internals += 1;
                let n = children.len();
                if n != keys.len() + 1 || !self.check_run(keys, k) {
                    return Err(format!("node {node}: {} keys, {n} children", keys.len()));
                }
                if n > self.fanout || n < if is_root { 2 } else { min } {
                    return Err(format!(
                        "node {node} holds {n} children, fanout {}",
                        self.fanout
                    ));
                }
                if depth >= self.height {
                    return Err(format!("internal node {node} at leaf depth {depth}"));
                }
                let seps: Vec<_> = (0..keys.len()).map(|i| key_of(keys, i)).collect();
                for (i, &child) in children.iter().enumerate() {
                    let lo = if i == 0 { lo } else { Some(&seps[i - 1]) };
                    let hi = if i < seps.len() { Some(&seps[i]) } else { hi };
                    if let (Some(lo), Some(hi)) = (lo, hi) {
                        if cmp(lo, hi) != Ordering::Less {
                            return Err(format!("node {node}: separators out of order at {hi:?}"));
                        }
                    }
                    self.check_subtree(child, depth + 1, lo, hi, leaves, internals)?;
                }
                Ok(())
            }
            _ => Err(format!("node {node} is free or out of the arena")),
        }
    }
}

enum InsertResult {
    Inserted,
    Replaced(Vec<Value>),
    /// A separator on its way up from a split (a run of one entry, the
    /// key columns), and the new right node.
    Split(Run, NodeId),
}

/// Consecutive entries of one leaf, as a seek or scan hands them on:
/// positions `range` of the leaf's run.
#[derive(Clone)]
pub struct Entries<'a> {
    tree: &'a BTree,
    run: &'a Run,
    range: Range<usize>,
}

impl<'a> Entries<'a> {
    pub(crate) fn new(tree: &'a BTree, run: &'a Run, range: Range<usize>) -> Entries<'a> {
        Entries { tree, run, range }
    }

    /// The positions of the entries in their leaf, rising.
    pub fn positions(&self) -> Range<usize> {
        self.range.clone()
    }

    /// The row id of the entry at position `i`.
    pub fn rid(&self, i: usize) -> RowId {
        self.run.rids[i]
    }

    /// Column `j`'s value of the entry at position `i`, as it was
    /// written.
    pub fn value(&self, i: usize, j: usize) -> Value {
        self.run.cols[j].value(i, &self.tree.dicts[j])
    }

    /// The leaf's runs, one per column.
    pub(crate) fn runs(&self) -> &'a [Typed] {
        &self.run.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BUILD_FILL;
    use proptest::prelude::*;

    // The model tests read the tree as a map `u64 -> u64`: the entry for
    // `k -> v` is `[Int(k), Int(v)]`, one key value and one included
    // value, at row id 0.

    fn int(v: &Value) -> u64 {
        match v {
            Value::Int(i) => *i as u64,
            other => panic!("not an Int: {other:?}"),
        }
    }

    fn entry(k: u64, v: u64) -> Vec<Value> {
        vec![Value::Int(k as i64), Value::Int(v as i64)]
    }

    const INTS: [ValueType; 2] = [ValueType::Int; 2];

    fn map(fanout: usize) -> BTree {
        BTree::new(fanout, &INTS, 1)
    }

    /// Insert `k -> v`; the value it replaced.
    fn ins(t: &mut BTree, k: u64, v: u64) -> Option<u64> {
        let e = entry(k, v);
        t.insert(|j| &e[j], RowId(0)).map(|old| int(&old[1]))
    }

    fn get(t: &BTree, k: u64) -> Option<u64> {
        t.get(&[Value::Int(k as i64)], RowId(0)).map(|e| int(&e[1]))
    }

    /// Remove `k`; the value it had.
    fn rem(t: &mut BTree, k: u64) -> Option<u64> {
        let had = get(t, k);
        assert_eq!(t.remove(&[Value::Int(k as i64)], RowId(0)), had.is_some());
        had
    }

    fn pairs(t: &BTree) -> Vec<(u64, u64)> {
        t.iter().map(|(e, _)| (int(&e[0]), int(&e[1]))).collect()
    }

    fn keys(t: &BTree) -> Vec<u64> {
        t.iter().map(|(e, _)| int(&e[0])).collect()
    }

    fn build(n: u64, fanout: usize) -> BTree {
        let mut t = map(fanout);
        for i in 0..n {
            ins(&mut t, i, i * 10);
        }
        t
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = build(1000, 8);
        for i in 0..1000 {
            assert_eq!(get(&t, i), Some(i * 10));
        }
        assert_eq!(get(&t, 1000), None);
        assert_eq!(t.len(), 1000);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_replaces() {
        let mut t = BTree::new(4, &[ValueType::Int, ValueType::Str], 1);
        let tagged = |s: &str| vec![Value::Int(1), Value::Str(s.into())];
        let (a, b) = (tagged("a"), tagged("b"));
        assert_eq!(t.insert(|j| &a[j], RowId(0)), None);
        assert_eq!(t.insert(|j| &b[j], RowId(0)), Some(tagged("a")));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&[Value::Int(1)], RowId(0)), Some(tagged("b")));
    }

    /// An entry's order ignores its included values, so an entry that
    /// differs from a stored one only there compares equal to it.
    #[test]
    fn insert_replaces_the_stored_key_too() {
        let mut t = BTree::new(4, &[ValueType::Int, ValueType::Str, ValueType::Int], 1);
        let tagged = |k: u64, tag: &str, v: u64| {
            vec![
                Value::Int(k as i64),
                Value::Str(tag.into()),
                Value::Int(v as i64),
            ]
        };
        for k in 0..20 {
            let e = tagged(k, "old", k);
            t.insert(|j| &e[j], RowId(0));
        }
        let new = tagged(7, "new", 70);
        assert_eq!(t.insert(|j| &new[j], RowId(0)), Some(tagged(7, "old", 7)));
        assert_eq!(t.len(), 20);
        for (e, _) in t.iter() {
            let k = int(&e[0]);
            let want = if k == 7 {
                tagged(7, "new", 70)
            } else {
                tagged(k, "old", k)
            };
            assert_eq!(e, want);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn reverse_and_random_insert_order() {
        let mut t = map(6);
        let mut keys_in: Vec<u64> = (0..500).collect();
        // Deterministic shuffle without rand: multiplicative permutation.
        keys_in.sort_by_key(|k| (k.wrapping_mul(2654435761)) % 500);
        for &k in &keys_in {
            ins(&mut t, k, k);
        }
        t.check_invariants().unwrap();
        assert_eq!(keys(&t), (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn remove_everything_both_directions() {
        for fanout in [4, 5, 8, 64] {
            let mut t = build(300, fanout);
            for i in 0..150 {
                assert_eq!(rem(&mut t, i), Some(i * 10), "fanout {fanout} key {i}");
                t.check_invariants().unwrap();
            }
            for i in (150..300).rev() {
                assert_eq!(rem(&mut t, i), Some(i * 10));
            }
            t.check_invariants().unwrap();
            assert!(t.is_empty());
            assert_eq!(t.height(), 1);
        }
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = build(10, 4);
        assert_eq!(rem(&mut t, 999), None);
        assert_eq!(t.len(), 10);
    }

    /// A bound on the map's key alone: row id 0, like every entry.
    fn at(k: &[Value]) -> Key<'_> {
        (k, RowId(0))
    }

    #[test]
    fn range_scans() {
        let t = build(100, 5);
        let (ten, twenty, ninety_five) = ([Value::Int(10)], [Value::Int(20)], [Value::Int(95)]);
        let mid: Vec<u64> = t
            .range(Bound::Included(at(&ten)), Bound::Excluded(at(&twenty)))
            .map(|(e, _)| int(&e[0]))
            .collect();
        assert_eq!(mid, (10..20).collect::<Vec<_>>());
        let open: Vec<u64> = t
            .range(Bound::Excluded(at(&ninety_five)), Bound::Unbounded)
            .map(|(e, _)| int(&e[0]))
            .collect();
        assert_eq!(open, vec![96, 97, 98, 99]);
        assert_eq!(keys(&t).len(), 100);
    }

    #[test]
    fn range_empty_interval() {
        let t = build(50, 4);
        let (thirty, two_hundred) = ([Value::Int(30)], [Value::Int(200)]);
        assert_eq!(
            t.range(Bound::Included(at(&thirty)), Bound::Excluded(at(&thirty)))
                .count(),
            0
        );
        assert_eq!(
            t.range(Bound::Included(at(&two_hundred)), Bound::Unbounded)
                .count(),
            0
        );
    }

    #[test]
    fn height_grows_logarithmically() {
        let t = build(10_000, 64);
        // 64^3 > 10_000, so height should be small.
        assert!(t.height() <= 4, "height {} too large", t.height());
        assert!(t.node_count() >= 10_000 / 64);
    }

    #[test]
    fn read_visits_track_depth() {
        let t = build(10_000, 16);
        let before = t.read_visits();
        get(&t, 5000);
        let visited = t.read_visits() - before;
        assert_eq!(visited as usize, t.height());
    }

    #[test]
    fn node_reuse_after_free() {
        let mut t = build(500, 4);
        let peak = t.arena.len();
        for i in 0..500 {
            rem(&mut t, i);
        }
        for i in 0..500 {
            ins(&mut t, i, i);
        }
        // Arena should not have grown much beyond the peak: freed nodes reused.
        assert!(
            t.arena.len() <= peak + 2,
            "arena grew: {} vs {peak}",
            t.arena.len()
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn interleaved_insert_remove_stress() {
        let mut t = map(4);
        let mut model = std::collections::BTreeMap::new();
        let mut x: u64 = 12345;
        for _ in 0..5000 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 300;
            // Values stay in i64 range, as the entry stores them.
            let v = x >> 1;
            if x.is_multiple_of(3) {
                assert_eq!(rem(&mut t, k), model.remove(&k));
            } else {
                assert_eq!(ins(&mut t, k, v), model.insert(k, v));
            }
        }
        t.check_invariants().unwrap();
        let want: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs(&t), want);
    }

    // -----------------------------------------------------------------
    // The bulk path
    // -----------------------------------------------------------------

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Every separator is exactly the smallest key under its right
    /// child. `check_invariants` cannot ask for this (a `remove` may
    /// leave a separator stale), but a tree that was only ever built or
    /// inserted into has it.
    fn separators_are_first_keys(t: &BTree) -> bool {
        let k = t.key_len;
        let key = |run: &Run, i: usize| (run.values(i, k, &t.dicts), run.rids[i]);
        let first_key = |mut node: NodeId| loop {
            match &t.arena[node] {
                Node::Leaf { entries, .. } => return key(entries, 0),
                Node::Internal { children, .. } => node = children[0],
                Node::Free { .. } => unreachable!(),
            }
        };
        t.arena.iter().all(|n| match n {
            Node::Internal { keys, children } => (0..keys.len()).all(|i| {
                let (a, b) = (key(keys, i), first_key(children[i + 1]));
                cmp_key((&a.0, a.1), (&b.0, b.1)).is_eq()
            }),
            _ => true,
        })
    }

    /// A tree of `width` `Int` columns bulk-built by `from_columns` from
    /// `entries`, each its values and row id, in strictly rising key
    /// order.
    fn bulk(
        fanout: usize,
        fill: f64,
        width: usize,
        key_len: usize,
        entries: impl Iterator<Item = (Vec<Value>, RowId)>,
    ) -> BTree {
        let mut columns = vec![Column::of_type(ValueType::Int, 0); width];
        let mut rids = Vec::new();
        for (vals, rid) in entries {
            columns.iter_mut().zip(vals).for_each(|(c, v)| c.push(v));
            rids.push(rid);
        }
        let sources: Vec<&Column> = columns.iter().collect();
        let order: Vec<u32> = (0..rids.len() as u32).collect();
        BTree::from_columns(fanout, fill, key_len, &sources, &order, |i| {
            rids[i as usize]
        })
    }

    /// [`bulk`] over `(key, value)` pairs: entries `[Int(key),
    /// Int(value)]` at row id 0.
    fn from_pairs(fanout: usize, fill: f64, pairs: &[(u64, u64)]) -> BTree {
        let entries = pairs.iter().map(|&(k, v)| (entry(k, v), RowId(0)));
        bulk(fanout, fill, 2, 1, entries)
    }

    /// `n` entries in rising order whose key value repeats heavily (a
    /// duplicate index key) and whose row id tells them apart; the
    /// included value encodes both. As `(key value, row id, value)`.
    fn rising(n: usize, distinct: u32, x: &mut u64) -> Vec<(u32, u32, u64)> {
        let mut keys: Vec<(u32, u32)> = (0..n as u32)
            .map(|i| ((xorshift(x) % u64::from(distinct)) as u32, i))
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|(k, r)| (k, r, u64::from(k) << 32 | u64::from(r)))
            .collect()
    }

    fn dup_entry(k: u32, v: u64) -> Vec<Value> {
        vec![Value::Int(i64::from(k)), Value::Int(v as i64)]
    }

    #[test]
    fn bulk_build_keeps_occupancy_at_every_small_count() {
        for fanout in [4usize, 5, 6, 7, 8, 9, 16, 33, 64] {
            for fill in [0.5, BUILD_FILL, 1.0] {
                for n in 0..=4 * fanout as u64 + 2 {
                    let entries: Vec<(u64, u64)> = (0..n).map(|i| (i, i * 3)).collect();
                    let t = from_pairs(fanout, fill, &entries);
                    t.check_invariants()
                        .unwrap_or_else(|e| panic!("fanout {fanout} fill {fill} n {n}: {e}"));
                    assert!(separators_are_first_keys(&t));
                    let n = n as usize;
                    assert_eq!(t.len(), n);
                    // One leaf until there is enough for two half-full
                    // ones; never one leaf of `fanout` entries.
                    assert!(t.height() == 1 || n >= 2 * (fanout / 2));
                    assert!(t.height() > 1 || n < fanout);
                    assert_eq!(pairs(&t), entries);
                    assert_eq!(t.write_visits(), 0);
                }
            }
        }
    }

    #[test]
    fn bulk_build_fills_to_the_asked_fraction() {
        // 100,000 entries at fanout 100: 69 a leaf, and one level of
        // internal nodes at 69 children under the root.
        let entries = (0..100_000).map(|i: i32| (vec![Value::Int(i64::from(i))], RowId(0)));
        let t = bulk(100, BUILD_FILL, 1, 1, entries);
        t.check_invariants().unwrap();
        let leaves = 100_000usize.div_ceil(69);
        let internals = leaves.div_ceil(69);
        assert_eq!(t.node_count(), leaves + internals + 1);
        assert_eq!(t.height(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly rising")]
    fn bulk_build_rejects_a_repeated_key() {
        from_pairs(8, BUILD_FILL, &[(1, 0), (2, 0), (2, 1), (3, 0)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly rising")]
    fn bulk_build_rejects_falling_keys() {
        from_pairs(8, BUILD_FILL, &[(1, 0), (3, 0), (2, 0)]);
    }

    /// Bulk == incremental: over random fanouts, fills and entry counts
    /// (the awkward ones around a half, one and two nodes' worth first),
    /// `from_columns` gives a well-formed tree that iterates to its input
    /// and answers `get` and `range` as a tree built by `insert` in
    /// shuffled order does. Salted with `CHAOS_SEED`, so CI's chaos
    /// matrix draws different cases per seed.
    #[test]
    fn bulk_built_tree_equals_insert_built_tree() {
        let seed = std::env::var("CHAOS_SEED").unwrap_or_default();
        proptest::run_prop_test(
            &format!("bulk_built_tree_equals_insert_built_tree/{seed}"),
            &ProptestConfig::with_cases(96),
            (
                4usize..=512,
                0usize..4,
                0usize..22,
                0usize..=20_000,
                1u32..60,
                any::<u64>(),
            ),
            |(fanout, fill, which, random_n, distinct, salt)| {
                let fill = [0.5, BUILD_FILL, BUILD_FILL, 1.0][fill];
                let two_nodes = (2.0 * fill * fanout as f64) as usize;
                let edges = [
                    0,
                    1,
                    fanout / 2 - 1,
                    fanout / 2,
                    fanout / 2 + 1,
                    fanout - 1,
                    fanout,
                    fanout + 1,
                    two_nodes - 1,
                    two_nodes,
                    two_nodes + 1,
                ];
                let n = edges.get(which).copied().unwrap_or(random_n);
                let mut x = salt | 1;
                let entries = rising(n, distinct, &mut x);

                let sorted = entries
                    .iter()
                    .map(|&(k, r, v)| (dup_entry(k, v), RowId(u64::from(r))));
                let bulk = bulk(fanout, fill, 2, 1, sorted);
                bulk.check_invariants().map_err(TestCaseError::fail)?;
                prop_assert!(separators_are_first_keys(&bulk));
                prop_assert_eq!(bulk.len(), n);
                prop_assert_eq!(bulk.write_visits(), 0);
                let listed: Vec<_> = bulk
                    .iter()
                    .map(|(e, rid)| (int(&e[0]) as u32, rid.0 as u32, int(&e[1])))
                    .collect();
                prop_assert!(listed == entries, "iteration differs from the input");

                let mut shuffled = entries.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
                }
                let mut inserted = BTree::new(fanout, &INTS, 1);
                for (k, r, v) in shuffled {
                    let e = dup_entry(k, v);
                    inserted.insert(|j| &e[j], RowId(u64::from(r)));
                }
                prop_assert_eq!(inserted.len(), n);
                inserted.check_invariants().map_err(TestCaseError::fail)?;

                // Probes: present keys, and absent ones on either side.
                let probe = |x: &mut u64| {
                    let r = xorshift(x);
                    (
                        [Value::Int((r % u64::from(distinct + 1)) as i64)],
                        RowId((r >> 32) % (n as u64 + 2)),
                    )
                };
                for _ in 0..64 {
                    let (k, rid) = probe(&mut x);
                    prop_assert_eq!(bulk.get(&k, rid), inserted.get(&k, rid));
                    let (a, b) = (probe(&mut x), probe(&mut x));
                    let (a, b) = ((&a.0[..], a.1), (&b.0[..], b.1));
                    let (lo, hi) = if cmp_key(a, b).is_le() {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    for (lo, hi) in [
                        (Bound::Included(lo), Bound::Excluded(hi)),
                        (Bound::Excluded(lo), Bound::Included(hi)),
                        (Bound::Included(lo), Bound::Unbounded),
                        (Bound::Unbounded, Bound::Excluded(hi)),
                    ] {
                        prop_assert!(
                            bulk.range(lo, hi).eq(inserted.range(lo, hi)),
                            "range {lo:?}..{hi:?}"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    /// A bulk-built tree then lives an ordinary life: random inserts,
    /// replacements and removes against a model, invariants after each.
    #[test]
    fn bulk_built_tree_survives_inserts_and_removes() {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for fanout in [4usize, 5, 8, 32] {
            let entries: Vec<(u64, u64)> = (0..600).map(|i| (i * 2, i)).collect();
            let mut t = from_pairs(fanout, BUILD_FILL, &entries);
            let mut model: std::collections::BTreeMap<u64, u64> = entries.into_iter().collect();
            for step in 0..4_000 {
                let r = xorshift(&mut x);
                let k = (r >> 8) % 1_400;
                let v = r >> 1;
                if r % 5 < 2 {
                    assert_eq!(ins(&mut t, k, v), model.insert(k, v));
                } else {
                    assert_eq!(rem(&mut t, k), model.remove(&k));
                }
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("fanout {fanout} step {step}: {e}"));
            }
            assert!(pairs(&t).into_iter().eq(model));
        }
    }
}
