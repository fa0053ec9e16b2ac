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
//! `key_len` values, then the row id, so duplicate index keys are
//! supported and the included values are cargo. A node holds its entries
//! flat, as the page it models does: one run of values, `width` to an
//! entry, and beside it one run of row ids. An entry costs no allocation of
//! its own.

use crate::heap::RowId;
use crate::types::Value;
use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::Bound;

/// Index of a node in the tree's arena.
type NodeId = usize;

const NO_NODE: NodeId = usize::MAX;

/// An entry's ordering key, or a bound on one: key values and a row id.
/// The values may be a prefix of the key columns; a prefix orders before
/// every key that extends it.
pub type Probe<'a> = (&'a [Value], RowId);

fn cmp_key(a: Probe<'_>, b: Probe<'_>) -> Ordering {
    a.0.cmp(b.0).then(a.1.cmp(&b.1))
}

/// Entries stored flat: `vals` holds a fixed number of values per entry
/// (the stride, which the tree passes in), `rids` one row id per entry.
/// A leaf's stride is the tree's `width`; an internal node's separators
/// keep only the ordering values, stride `key_len`.
#[derive(Debug, Clone, Default)]
struct Run {
    vals: Vec<Value>,
    rids: Vec<RowId>,
}

impl Run {
    fn with_capacity(entries: usize, w: usize) -> Run {
        Run {
            vals: Vec::with_capacity(entries * w),
            rids: Vec::with_capacity(entries),
        }
    }

    fn len(&self) -> usize {
        self.rids.len()
    }

    /// Entry `i`'s values.
    fn values(&self, i: usize, w: usize) -> &[Value] {
        &self.vals[i * w..(i + 1) * w]
    }

    /// Entry `i`'s ordering key: its first `k` values and its row id.
    fn key(&self, i: usize, w: usize, k: usize) -> Probe<'_> {
        (&self.vals[i * w..i * w + k], self.rids[i])
    }

    /// `Ok(i)` if entry `i`'s key equals `probe`, else `Err` of where
    /// `probe` would go.
    fn search(&self, w: usize, k: usize, probe: Probe<'_>) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp_key(self.key(mid, w, k), probe) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Where a descent for `probe` goes: past every separator not
    /// greater than it.
    fn child_for(&self, k: usize, probe: Probe<'_>) -> usize {
        match self.search(k, k, probe) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    fn insert<I>(&mut self, i: usize, w: usize, vals: I, rid: RowId)
    where
        I: IntoIterator<Item = Value>,
        I::IntoIter: ExactSizeIterator,
    {
        self.vals.splice(i * w..i * w, vals);
        self.rids.insert(i, rid);
    }

    fn remove(&mut self, i: usize, w: usize) {
        self.vals.drain(i * w..(i + 1) * w);
        self.rids.remove(i);
    }

    /// Overwrite entry `i`'s key (stride `k`) with a copy of `key`.
    fn set_key(&mut self, i: usize, k: usize, key: Probe<'_>) {
        self.vals[i * k..(i + 1) * k].clone_from_slice(key.0);
        self.rids[i] = key.1;
    }

    /// Append a copy of `key` (stride `k`).
    fn push_key(&mut self, key: Probe<'_>) {
        self.vals.extend_from_slice(key.0);
        self.rids.push(key.1);
    }

    /// Entries `at..` moved into a new run with room for `cap` entries.
    fn split_off(&mut self, at: usize, w: usize, cap: usize) -> Run {
        let mut right = Run::with_capacity(cap, w);
        right.vals.extend(self.vals.drain(at * w..));
        right.rids.extend(self.rids.drain(at..));
        right
    }

    fn append(&mut self, other: &mut Run) {
        self.vals.append(&mut other.vals);
        self.rids.append(&mut other.rids);
    }

    /// Move entry `i` of `self` to position `j` of `to`.
    fn move_entry(&mut self, i: usize, w: usize, to: &mut Run, j: usize) {
        to.vals
            .splice(j * w..j * w, self.vals.drain(i * w..(i + 1) * w));
        to.rids.insert(j, self.rids.remove(i));
    }

    /// Exchange entry `i` of `self` with entry `j` of `other`.
    fn swap_entry(&mut self, i: usize, w: usize, other: &mut Run, j: usize) {
        self.vals[i * w..(i + 1) * w].swap_with_slice(&mut other.vals[j * w..(j + 1) * w]);
        std::mem::swap(&mut self.rids[i], &mut other.rids[j]);
    }
}

#[derive(Debug, Clone)]
enum Node {
    Internal {
        /// `keys[i]` divides `children[i]` from `children[i + 1]`: greater
        /// than every key under the former, no greater than any under the
        /// latter. A bulk build or a split sets it to the smallest key of
        /// the right subtree; a later `remove` of that key leaves it stale
        /// but still dividing. Stride `key_len`.
        keys: Run,
        children: Vec<NodeId>,
    },
    Leaf {
        /// Stride `width`.
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
    /// Values per entry: the key values, then the included values.
    width: usize,
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
    /// entries of `width` values, the first `key_len` of which order them.
    pub fn new(fanout: usize, width: usize, key_len: usize) -> BTree {
        assert!(fanout >= 4, "fanout must be at least 4");
        assert!(key_len <= width, "more key values than values");
        let mut t = BTree {
            arena: Vec::new(),
            root: NO_NODE,
            free_head: NO_NODE,
            len: 0,
            fanout,
            height: 1,
            width,
            key_len,
            read_visits: Cell::new(0),
            write_visits: 0,
        };
        t.root = t.alloc(Node::Leaf {
            entries: Run::default(),
            next: NO_NODE,
            prev: NO_NODE,
        });
        t
    }

    /// Build a tree bottom-up from `entries` — each its `width` values and
    /// its row id — which must already be in strictly rising key order:
    /// leaves are written left to right and linked both ways, then each
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
    pub fn from_sorted<E: IntoIterator<Item = Value>>(
        fanout: usize,
        fill: f64,
        width: usize,
        key_len: usize,
        mut entries: impl ExactSizeIterator<Item = (E, RowId)>,
    ) -> BTree {
        let mut t = BTree::new(fanout, width, key_len);
        let (w, k) = (width, key_len);
        let n = entries.len();
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
        let mut firsts = Run::default();
        let mut ids: Vec<NodeId> = Vec::new();
        for size in spread(n) {
            // A leaf is allocated as the page it models, room for `fanout`
            // entries: the maintenance inserts the fill leaves room for
            // then never move it.
            let mut leaf = Run::with_capacity(fanout, w);
            for (vals, rid) in entries.by_ref().take(size) {
                leaf.vals.extend(vals);
                leaf.rids.push(rid);
            }
            assert_eq!(
                leaf.vals.len(),
                size * w,
                "from_sorted: {w} values an entry"
            );
            debug_assert!(
                {
                    let last_before = match t.arena.last() {
                        Some(Node::Leaf { entries, .. }) => {
                            Some(entries.key(entries.len() - 1, w, k))
                        }
                        _ => None,
                    };
                    let keys = (0..size).map(|i| leaf.key(i, w, k));
                    let keys = last_before.into_iter().chain(keys);
                    keys.is_sorted_by(|a, b| cmp_key(*a, *b).is_lt())
                },
                "from_sorted: keys must be strictly rising"
            );
            let id = t.arena.len();
            firsts.push_key(leaf.key(0, w, k));
            ids.push(id);
            t.arena.push(Node::Leaf {
                entries: leaf,
                next: id + 1,
                prev: if id == 0 { NO_NODE } else { id - 1 },
            });
        }
        if let Some(Node::Leaf { next, .. }) = t.arena.last_mut() {
            *next = NO_NODE;
        }
        while ids.len() > 1 {
            let mut above = Run::default();
            let mut above_ids = Vec::new();
            let mut at = 0;
            for size in spread(ids.len()) {
                let keys = Run {
                    vals: firsts.vals[(at + 1) * k..(at + size) * k].to_vec(),
                    rids: firsts.rids[at + 1..at + size].to_vec(),
                };
                above.push_key(firsts.key(at, k, k));
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
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Values per entry.
    pub fn width(&self) -> usize {
        self.width
    }

    /// How many of an entry's values order it.
    pub fn key_len(&self) -> usize {
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
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of live (non-free) nodes — the tree's "page count".
    pub fn node_count(&self) -> usize {
        self.arena
            .iter()
            .filter(|n| !matches!(n, Node::Free { .. }))
            .count()
    }

    /// Total node visits by read operations since creation.
    pub fn read_visits(&self) -> u64 {
        self.read_visits.get()
    }

    /// Total node visits by write operations since creation.
    pub fn write_visits(&self) -> u64 {
        self.write_visits
    }

    /// Reset both visit counters (used when an executor wants per-statement
    /// deltas without tracking previous values).
    pub fn reset_visits(&mut self) {
        self.read_visits.set(0);
        self.write_visits = 0;
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

    /// The values of the entry whose key is `key`. Counts one read visit
    /// per level descended.
    pub fn get(&self, key: &[Value], rid: RowId) -> Option<&[Value]> {
        let leaf = self.descend_to_leaf((key, rid));
        match &self.arena[leaf] {
            Node::Leaf { entries, .. } => entries
                .search(self.width, self.key_len, (key, rid))
                .ok()
                .map(|i| entries.values(i, self.width)),
            _ => unreachable!("descend_to_leaf returned non-leaf"),
        }
    }

    fn descend_to_leaf(&self, probe: Probe<'_>) -> NodeId {
        let mut node = self.root;
        loop {
            self.bump_read();
            match &self.arena[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    node = children[keys.child_for(self.key_len, probe)];
                }
                Node::Free { .. } => unreachable!("descended into freed node"),
            }
        }
    }

    /// Insert an entry: `width` values, the first `key_len` of which order
    /// it with `rid`. An entry whose key is already present is overwritten,
    /// included values too, and its old values are returned. Counts one
    /// write visit per node touched.
    pub fn insert(&mut self, entry: Vec<Value>, rid: RowId) -> Option<Vec<Value>> {
        assert_eq!(entry.len(), self.width, "an entry is {} values", self.width);
        let root = self.root;
        match self.insert_rec(root, entry, rid) {
            InsertResult::Replaced(old) => Some(old),
            InsertResult::Inserted => {
                self.len += 1;
                None
            }
            InsertResult::Split(sep, right) => {
                // Grow the tree by one level.
                let old_root = self.root;
                let mut keys = Run::with_capacity(1, self.key_len);
                keys.push_key((&sep.0, sep.1));
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

    fn insert_rec(&mut self, node: NodeId, mut entry: Vec<Value>, rid: RowId) -> InsertResult {
        self.write_visits += 1;
        let (w, k) = (self.width, self.key_len);
        match &mut self.arena[node] {
            Node::Leaf { entries, .. } => {
                match entries.search(w, k, (&entry[..k], rid)) {
                    Ok(i) => {
                        // The new entry replaces the stored one whole: keys
                        // that compare equal may still differ in what they
                        // carry (an index entry's included values).
                        entries.vals[i * w..(i + 1) * w].swap_with_slice(&mut entry);
                        entries.rids[i] = rid;
                        return InsertResult::Replaced(entry);
                    }
                    Err(i) => entries.insert(i, w, entry, rid),
                }
                if entries.len() >= self.fanout {
                    let (sep, right) = self.split_leaf(node);
                    InsertResult::Split(sep, right)
                } else {
                    InsertResult::Inserted
                }
            }
            Node::Internal { keys, children } => {
                let idx = keys.child_for(k, (&entry[..k], rid));
                let child = children[idx];
                match self.insert_rec(child, entry, rid) {
                    InsertResult::Split(sep, right) => {
                        if let Node::Internal { keys, children } = &mut self.arena[node] {
                            keys.insert(idx, k, sep.0, sep.1);
                            children.insert(idx + 1, right);
                            if keys.len() >= self.fanout {
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

    fn split_leaf(&mut self, node: NodeId) -> (Separator, NodeId) {
        let (w, k, fanout) = (self.width, self.key_len, self.fanout);
        let (right_entries, old_next) = match &mut self.arena[node] {
            Node::Leaf { entries, next, .. } => {
                let mid = entries.len() / 2;
                (entries.split_off(mid, w, fanout), *next)
            }
            _ => unreachable!(),
        };
        let (sep_vals, sep_rid) = right_entries.key(0, w, k);
        let sep = (sep_vals.to_vec(), sep_rid);
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

    fn split_internal(&mut self, node: NodeId) -> (Separator, NodeId) {
        let k = self.key_len;
        let (sep, right_keys, right_children) = match &mut self.arena[node] {
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid + 1, k, keys.len() - mid - 1);
                // The middle key moves up; it leaves the left node.
                let sep = keys.split_off(mid, k, 1);
                let right_children = children.split_off(mid + 1);
                ((sep.vals, sep.rids[0]), right_keys, right_children)
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
        let root = self.root;
        let removed = self.remove_rec(root, (key, rid));
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

    fn remove_rec(&mut self, node: NodeId, probe: Probe<'_>) -> bool {
        self.write_visits += 1;
        let (w, k) = (self.width, self.key_len);
        match &mut self.arena[node] {
            Node::Leaf { entries, .. } => match entries.search(w, k, probe) {
                Ok(i) => {
                    entries.remove(i, w);
                    true
                }
                Err(_) => false,
            },
            Node::Internal { keys, children } => {
                let idx = keys.child_for(k, probe);
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
        let (w, k) = (self.width, self.key_len);
        let mut l = self.take(left);
        let mut c = self.take(child);
        let Node::Internal { keys: sep, .. } = &mut self.arena[parent] else {
            unreachable!()
        };
        match (&mut l, &mut c) {
            (Node::Leaf { entries: le, .. }, Node::Leaf { entries: ce, .. }) => {
                le.move_entry(le.len() - 1, w, ce, 0);
                sep.set_key(idx - 1, k, ce.key(0, w, k));
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
                lk.swap_entry(last, k, sep, idx - 1);
                lk.move_entry(last, k, ck, 0);
                cc.insert(0, lc.pop().expect("left non-empty"));
            }
            _ => unreachable!("sibling kind mismatch"),
        }
        self.arena[left] = l;
        self.arena[child] = c;
    }

    fn borrow_from_right(&mut self, parent: NodeId, idx: usize, child: NodeId, right: NodeId) {
        self.write_visits += 2;
        let (w, k) = (self.width, self.key_len);
        let mut c = self.take(child);
        let mut r = self.take(right);
        let Node::Internal { keys: sep, .. } = &mut self.arena[parent] else {
            unreachable!()
        };
        match (&mut c, &mut r) {
            (Node::Leaf { entries: ce, .. }, Node::Leaf { entries: re, .. }) => {
                re.move_entry(0, w, ce, ce.len());
                sep.set_key(idx, k, re.key(0, w, k));
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
                rk.swap_entry(0, k, sep, idx);
                rk.move_entry(0, k, ck, ck.len());
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
        let k = self.key_len;
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
                sep.remove(sep_idx, k);
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
                sep.move_entry(sep_idx, k, keys, keys.len());
                keys.append(&mut r_keys);
                children.append(&mut r_children);
            }
            _ => unreachable!("sibling kind mismatch"),
        }
        self.arena[left] = l;
        self.free(right);
    }

    /// Iterate entries in key order over the given bounds, each as its
    /// values and row id. Counts read visits for the descent and each leaf
    /// traversed.
    pub fn range<'k>(&self, lo: Bound<Probe<'_>>, hi: Bound<Probe<'k>>) -> RangeIter<'_, 'k> {
        let (w, k) = (self.width, self.key_len);
        let (leaf, pos) = match lo {
            Bound::Unbounded => (self.leftmost_leaf(), 0),
            Bound::Included(p) | Bound::Excluded(p) => {
                let leaf = self.descend_to_leaf(p);
                let pos = match &self.arena[leaf] {
                    Node::Leaf { entries, .. } => match entries.search(w, k, p) {
                        Ok(i) if matches!(lo, Bound::Excluded(_)) => i + 1,
                        Ok(i) | Err(i) => i,
                    },
                    _ => unreachable!(),
                };
                (leaf, pos)
            }
        };
        RangeIter {
            tree: self,
            leaf,
            pos,
            hi,
        }
    }

    /// Iterate all entries in key order.
    pub fn iter(&self) -> RangeIter<'_, 'static> {
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
    /// right); shape (every leaf at depth `height`, every entry `width`
    /// values, every separator `key_len`); leaf links (`next` from the
    /// leftmost leaf visits exactly the leaves reachable from the root, in
    /// order, and `prev` mirrors it); bookkeeping (`len` entries,
    /// `node_count` nodes reachable, every other arena slot on the free
    /// list).
    pub fn check_invariants(&self) -> Result<(), String> {
        let (w, k) = (self.width, self.key_len);
        let mut leaves = Vec::new();
        let mut internals = 0usize;
        self.check_subtree(self.root, 1, None, None, &mut leaves, &mut internals)?;

        let mut count = 0usize;
        let mut last: Option<Probe<'_>> = None;
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
                let key = entries.key(i, w, k);
                if last.is_some_and(|l| cmp_key(l, key) != Ordering::Less) {
                    return Err(format!("keys out of order at {key:?}"));
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

    /// `check_invariants` below one node: every key in `lo ..< hi` (the
    /// separators on the way down), occupancy, depth, stride. Appends the
    /// leaves in key order.
    fn check_subtree(
        &self,
        node: NodeId,
        depth: usize,
        lo: Option<Probe<'_>>,
        hi: Option<Probe<'_>>,
        leaves: &mut Vec<NodeId>,
        internals: &mut usize,
    ) -> Result<(), String> {
        let (w, k) = (self.width, self.key_len);
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
                if entries.vals.len() != n * w {
                    let values = entries.vals.len();
                    return Err(format!("leaf {node}: {values} values for {n} entries"));
                }
                if n >= self.fanout || (!is_root && n < min) {
                    return Err(format!(
                        "leaf {node} holds {n} entries, fanout {}",
                        self.fanout
                    ));
                }
                if n > 0 {
                    let (first, last) = (entries.key(0, w, k), entries.key(n - 1, w, k));
                    if lo.is_some_and(|lo| cmp_key(first, lo) == Ordering::Less) {
                        return Err(format!("leaf {node}: {first:?} under separator {lo:?}"));
                    }
                    if hi.is_some_and(|hi| cmp_key(last, hi) != Ordering::Less) {
                        return Err(format!("leaf {node}: {last:?} not under separator {hi:?}"));
                    }
                }
                leaves.push(node);
                Ok(())
            }
            Some(Node::Internal { keys, children }) => {
                *internals += 1;
                let n = children.len();
                if n != keys.len() + 1 || keys.vals.len() != keys.len() * k {
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
                for (i, &child) in children.iter().enumerate() {
                    let lo = if i == 0 {
                        lo
                    } else {
                        Some(keys.key(i - 1, k, k))
                    };
                    let hi = if i < keys.len() {
                        Some(keys.key(i, k, k))
                    } else {
                        hi
                    };
                    if let (Some(lo), Some(hi)) = (lo, hi) {
                        if cmp_key(lo, hi) != Ordering::Less {
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

/// A separator on its way up from a split: key values and row id.
type Separator = (Vec<Value>, RowId);

enum InsertResult {
    Inserted,
    Replaced(Vec<Value>),
    Split(Separator, NodeId),
}

/// Ordered iterator over a key range of a [`BTree`]: each entry's values
/// (key values, then included values) and row id.
pub struct RangeIter<'a, 'k> {
    tree: &'a BTree,
    leaf: NodeId,
    pos: usize,
    hi: Bound<Probe<'k>>,
}

impl<'a> Iterator for RangeIter<'a, '_> {
    type Item = (&'a [Value], RowId);

    fn next(&mut self) -> Option<Self::Item> {
        let (w, k) = (self.tree.width, self.tree.key_len);
        loop {
            if self.leaf == NO_NODE {
                return None;
            }
            match &self.tree.arena[self.leaf] {
                Node::Leaf { entries, next, .. } => {
                    if self.pos < entries.len() {
                        let key = entries.key(self.pos, w, k);
                        let in_range = match self.hi {
                            Bound::Unbounded => true,
                            Bound::Included(h) => cmp_key(key, h) != Ordering::Greater,
                            Bound::Excluded(h) => cmp_key(key, h) == Ordering::Less,
                        };
                        if !in_range {
                            self.leaf = NO_NODE;
                            return None;
                        }
                        let item = (entries.values(self.pos, w), key.1);
                        self.pos += 1;
                        return Some(item);
                    }
                    // Advance to the next leaf; count a page visit.
                    self.tree.bump_read();
                    self.leaf = *next;
                    self.pos = 0;
                }
                _ => unreachable!("range iter on non-leaf"),
            }
        }
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

    fn map(fanout: usize) -> BTree {
        BTree::new(fanout, 2, 1)
    }

    /// Insert `k -> v`; the value it replaced.
    fn ins(t: &mut BTree, k: u64, v: u64) -> Option<u64> {
        t.insert(entry(k, v), RowId(0)).map(|old| int(&old[1]))
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
        let mut t = map(4);
        let tagged = |s: &str| vec![Value::Int(1), Value::Str(s.into())];
        assert_eq!(t.insert(tagged("a"), RowId(0)), None);
        assert_eq!(t.insert(tagged("b"), RowId(0)), Some(tagged("a")));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&[Value::Int(1)], RowId(0)), Some(&tagged("b")[..]));
    }

    /// An entry's order ignores its included values, so an entry that
    /// differs from a stored one only there compares equal to it.
    #[test]
    fn insert_replaces_the_stored_key_too() {
        let mut t = BTree::new(4, 3, 1);
        let tagged = |k: u64, tag: &str, v: u64| {
            vec![
                Value::Int(k as i64),
                Value::Str(tag.into()),
                Value::Int(v as i64),
            ]
        };
        for k in 0..20 {
            t.insert(tagged(k, "old", k), RowId(0));
        }
        assert_eq!(
            t.insert(tagged(7, "new", 70), RowId(0)),
            Some(tagged(7, "old", 7))
        );
        assert_eq!(t.len(), 20);
        for (e, _) in t.iter() {
            let k = int(&e[0]);
            let want = if k == 7 {
                tagged(7, "new", 70)
            } else {
                tagged(k, "old", k)
            };
            assert_eq!(e, &want[..]);
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
    fn at(k: &[Value]) -> Probe<'_> {
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
    fn visits_reset() {
        let mut t = build(100, 8);
        get(&t, 5);
        assert!(t.read_visits() > 0);
        t.reset_visits();
        assert_eq!(t.read_visits(), 0);
        assert_eq!(t.write_visits(), 0);
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
        let (w, k) = (t.width, t.key_len);
        let first_key = |mut node: NodeId| loop {
            match &t.arena[node] {
                Node::Leaf { entries, .. } => return entries.key(0, w, k),
                Node::Internal { children, .. } => node = children[0],
                Node::Free { .. } => unreachable!(),
            }
        };
        t.arena.iter().all(|n| match n {
            Node::Internal { keys, children } => (0..keys.len())
                .all(|i| cmp_key(keys.key(i, k, k), first_key(children[i + 1])).is_eq()),
            _ => true,
        })
    }

    /// `from_sorted` over `(key, value)` pairs: entries `[Int(key),
    /// Int(value)]` at row id 0.
    fn from_pairs(fanout: usize, fill: f64, pairs: &[(u64, u64)]) -> BTree {
        let entries = pairs.iter().map(|&(k, v)| (entry(k, v), RowId(0)));
        BTree::from_sorted(fanout, fill, 2, 1, entries)
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
        let entries = (0..100_000).map(|i: i32| ([Value::Int(i64::from(i))], RowId(0)));
        let t = BTree::from_sorted(100, BUILD_FILL, 1, 1, entries);
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
    /// `from_sorted` gives a well-formed tree that iterates to its input
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
                let bulk = BTree::from_sorted(fanout, fill, 2, 1, sorted);
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
                let mut inserted = BTree::new(fanout, 2, 1);
                for (k, r, v) in shuffled {
                    inserted.insert(dup_entry(k, v), RowId(u64::from(r)));
                }
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
