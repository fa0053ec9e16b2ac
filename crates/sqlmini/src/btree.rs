//! An in-memory B+ tree with real node splits, borrows, and merges.
//!
//! Secondary indexes in [`crate::index`] are built on this tree. Unlike a
//! toy sorted-map wrapper, this implementation models the *physical* shape
//! of an index — node fanout, tree depth, and the number of nodes touched
//! per operation — because the engine's "logical reads" metric (which the
//! paper's validator compares before/after index changes) is literally the
//! count of B+ tree / heap pages visited.
//!
//! Keys are generic; the index layer instantiates the tree with composite
//! `(key values, row id)` keys so duplicate index keys are supported.

use std::cell::Cell;
use std::fmt::Debug;
use std::ops::Bound;

/// Index of a node in the tree's arena.
type NodeId = usize;

const NO_NODE: NodeId = usize::MAX;

#[derive(Debug, Clone)]
enum Node<K, V> {
    Internal {
        /// `keys[i]` divides `children[i]` from `children[i + 1]`: greater
        /// than every key under the former, no greater than any under the
        /// latter. A bulk build or a split sets it to the smallest key of
        /// the right subtree; a later `remove` of that key leaves it stale
        /// but still dividing.
        keys: Vec<K>,
        children: Vec<NodeId>,
    },
    Leaf {
        entries: Vec<(K, V)>,
        next: NodeId,
        prev: NodeId,
    },
    /// Slot on the free list.
    Free { next_free: NodeId },
}

/// An in-memory B+ tree mapping `K` to `V`.
///
/// `fanout` is the maximum number of children of an internal node (and the
/// maximum number of entries in a leaf). Nodes split at `fanout` and merge
/// below `fanout / 2`.
#[derive(Debug, Clone)]
pub struct BTree<K, V> {
    arena: Vec<Node<K, V>>,
    root: NodeId,
    free_head: NodeId,
    len: usize,
    fanout: usize,
    height: usize,
    /// Logical node visits by read operations; interior mutability because
    /// reads take `&self`.
    read_visits: Cell<u64>,
    /// Logical node visits by write operations.
    write_visits: u64,
}

impl<K: Ord + Clone + Debug, V: Clone> Default for BTree<K, V> {
    fn default() -> Self {
        BTree::new(64)
    }
}

impl<K: Ord + Clone + Debug, V: Clone> BTree<K, V> {
    /// Create an empty tree with the given maximum node fanout (>= 4).
    pub fn new(fanout: usize) -> BTree<K, V> {
        assert!(fanout >= 4, "fanout must be at least 4");
        let mut t = BTree {
            arena: Vec::new(),
            root: NO_NODE,
            free_head: NO_NODE,
            len: 0,
            fanout,
            height: 1,
            read_visits: Cell::new(0),
            write_visits: 0,
        };
        t.root = t.alloc(Node::Leaf {
            entries: Vec::new(),
            next: NO_NODE,
            prev: NO_NODE,
        });
        t
    }

    /// Build a tree bottom-up from `entries`, which must already be in
    /// strictly rising key order: leaves are written left to right and
    /// linked both ways, then each internal level from the smallest keys
    /// of the level below, every node `fill × fanout` full (rounded up, and
    /// evened out so that no node is left under half full). No entry is
    /// compared against another and nothing descends from a root, which
    /// is what makes this the way to materialise an index over rows that
    /// already exist; `write_visits` stays 0.
    ///
    /// The result is a tree `insert` could have produced: every non-root
    /// leaf holds `fanout / 2 ..= fanout - 1` entries and every non-root
    /// internal node `fanout / 2 ..= fanout` children. A level too short
    /// for nodes at `fill` is therefore cut into fewer, fuller ones, and
    /// entries too few for two half-full leaves make one root leaf
    /// whatever `fill` says.
    pub fn from_sorted(fanout: usize, fill: f64, entries: Vec<(K, V)>) -> BTree<K, V> {
        let mut t = BTree::new(fanout);
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted: keys must be strictly rising"
        );
        if entries.is_empty() {
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
        t.len = entries.len();
        // One level at a time: (smallest key under the node, the node).
        let mut level: Vec<(K, NodeId)> = Vec::new();
        let mut rest = entries.into_iter();
        for size in spread(t.len) {
            // A leaf is allocated as the page it models, room for `fanout`
            // entries: the maintenance inserts the fill leaves room for
            // then never move it.
            let mut leaf: Vec<(K, V)> = Vec::with_capacity(fanout);
            leaf.extend(rest.by_ref().take(size));
            let id = t.arena.len();
            level.push((leaf[0].0.clone(), id));
            t.arena.push(Node::Leaf {
                entries: leaf,
                next: id + 1,
                prev: if id == 0 { NO_NODE } else { id - 1 },
            });
        }
        if let Some(Node::Leaf { next, .. }) = t.arena.last_mut() {
            *next = NO_NODE;
        }
        while level.len() > 1 {
            let mut above = Vec::new();
            let mut rest = level.into_iter();
            for size in spread(rest.len()) {
                let (first_key, first_child) = rest.next().expect("a node has children");
                let mut keys = Vec::with_capacity(size - 1);
                let mut children = Vec::with_capacity(size);
                children.push(first_child);
                for (key, child) in rest.by_ref().take(size - 1) {
                    keys.push(key);
                    children.push(child);
                }
                above.push((first_key, t.arena.len()));
                t.arena.push(Node::Internal { keys, children });
            }
            level = above;
            t.height += 1;
        }
        t.root = level[0].1;
        t
    }

    /// Maximum children of an internal node; a leaf holds one entry fewer.
    pub fn fanout(&self) -> usize {
        self.fanout
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

    fn alloc(&mut self, node: Node<K, V>) -> NodeId {
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

    /// Look up a key. Counts one read visit per level descended.
    pub fn get(&self, key: &K) -> Option<&V> {
        let leaf = self.descend_to_leaf(key);
        match &self.arena[leaf] {
            Node::Leaf { entries, .. } => entries
                .binary_search_by(|(k, _)| k.cmp(key))
                .ok()
                .map(|i| &entries[i].1),
            _ => unreachable!("descend_to_leaf returned non-leaf"),
        }
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    fn descend_to_leaf(&self, key: &K) -> NodeId {
        let mut node = self.root;
        loop {
            self.bump_read();
            match &self.arena[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    let idx = match keys.binary_search(key) {
                        Ok(i) => i + 1,
                        Err(i) => i,
                    };
                    node = children[idx];
                }
                Node::Free { .. } => unreachable!("descended into freed node"),
            }
        }
    }

    /// Insert a key/value pair. Returns the previous value if the key
    /// already existed. Counts one write visit per node touched.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let root = self.root;
        match self.insert_rec(root, key, value) {
            InsertResult::Replaced(old) => Some(old),
            InsertResult::Inserted => {
                self.len += 1;
                None
            }
            InsertResult::Split(sep, right) => {
                // Grow the tree by one level.
                let old_root = self.root;
                self.root = self.alloc(Node::Internal {
                    keys: vec![sep],
                    children: vec![old_root, right],
                });
                self.height += 1;
                self.len += 1;
                None
            }
        }
    }

    fn insert_rec(&mut self, node: NodeId, key: K, value: V) -> InsertResult<K, V> {
        self.write_visits += 1;
        match &mut self.arena[node] {
            Node::Leaf { entries, .. } => {
                match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                    Ok(i) => {
                        // The new key goes in with the new value: keys
                        // that compare equal may still differ in what
                        // they carry (an index entry's included values).
                        let (_, old) = std::mem::replace(&mut entries[i], (key, value));
                        return InsertResult::Replaced(old);
                    }
                    Err(i) => entries.insert(i, (key, value)),
                }
                if self.leaf_len(node) >= self.fanout {
                    let (sep, right) = self.split_leaf(node);
                    InsertResult::Split(sep, right)
                } else {
                    InsertResult::Inserted
                }
            }
            Node::Internal { keys, children } => {
                let idx = match keys.binary_search(&key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                let child = children[idx];
                match self.insert_rec(child, key, value) {
                    InsertResult::Split(sep, right) => {
                        if let Node::Internal { keys, children } = &mut self.arena[node] {
                            keys.insert(idx, sep);
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

    fn leaf_len(&self, node: NodeId) -> usize {
        match &self.arena[node] {
            Node::Leaf { entries, .. } => entries.len(),
            _ => unreachable!(),
        }
    }

    fn split_leaf(&mut self, node: NodeId) -> (K, NodeId) {
        let (right_entries, old_next) = match &mut self.arena[node] {
            Node::Leaf { entries, next, .. } => {
                let mid = entries.len() / 2;
                (entries.split_off(mid), *next)
            }
            _ => unreachable!(),
        };
        let sep = right_entries[0].0.clone();
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

    fn split_internal(&mut self, node: NodeId) -> (K, NodeId) {
        let (sep, right_keys, right_children) = match &mut self.arena[node] {
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let sep = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // remove separator from left
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

    /// Remove a key. Returns its value if present. Rebalances the tree by
    /// borrowing from or merging with siblings.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let root = self.root;
        let removed = self.remove_rec(root, key);
        if removed.is_some() {
            self.len -= 1;
            // Shrink the root if it became a pass-through internal node.
            if let Node::Internal { keys, children } = &self.arena[self.root] {
                if keys.is_empty() {
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

    fn remove_rec(&mut self, node: NodeId, key: &K) -> Option<V> {
        self.write_visits += 1;
        match &mut self.arena[node] {
            Node::Leaf { entries, .. } => match entries.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(i) => Some(entries.remove(i).1),
                Err(_) => None,
            },
            Node::Internal { keys, children } => {
                let idx = match keys.binary_search(key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                let child = children[idx];
                let removed = self.remove_rec(child, key);
                if removed.is_some() {
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
        let (left_sib, right_sib, n_children) = match &self.arena[parent] {
            Node::Internal { children, .. } => (
                if idx > 0 {
                    Some(children[idx - 1])
                } else {
                    None
                },
                children.get(idx + 1).copied(),
                children.len(),
            ),
            _ => unreachable!(),
        };
        let _ = n_children;
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

    fn borrow_from_left(&mut self, parent: NodeId, idx: usize, left: NodeId, child: NodeId) {
        self.write_visits += 2;
        let is_leaf = matches!(self.arena[child], Node::Leaf { .. });
        if is_leaf {
            let moved = match &mut self.arena[left] {
                Node::Leaf { entries, .. } => entries.pop().expect("left sibling non-empty"),
                _ => unreachable!(),
            };
            let new_sep = moved.0.clone();
            if let Node::Leaf { entries, .. } = &mut self.arena[child] {
                entries.insert(0, moved);
            }
            if let Node::Internal { keys, .. } = &mut self.arena[parent] {
                keys[idx - 1] = new_sep;
            }
        } else {
            let (moved_key, moved_child) = match &mut self.arena[left] {
                Node::Internal { keys, children } => (
                    keys.pop().expect("left non-empty"),
                    children.pop().expect("left non-empty"),
                ),
                _ => unreachable!(),
            };
            let old_sep = match &mut self.arena[parent] {
                Node::Internal { keys, .. } => std::mem::replace(&mut keys[idx - 1], moved_key),
                _ => unreachable!(),
            };
            if let Node::Internal { keys, children } = &mut self.arena[child] {
                keys.insert(0, old_sep);
                children.insert(0, moved_child);
            }
        }
    }

    fn borrow_from_right(&mut self, parent: NodeId, idx: usize, child: NodeId, right: NodeId) {
        self.write_visits += 2;
        let is_leaf = matches!(self.arena[child], Node::Leaf { .. });
        if is_leaf {
            let moved = match &mut self.arena[right] {
                Node::Leaf { entries, .. } => entries.remove(0),
                _ => unreachable!(),
            };
            let new_sep = match &self.arena[right] {
                Node::Leaf { entries, .. } => entries[0].0.clone(),
                _ => unreachable!(),
            };
            if let Node::Leaf { entries, .. } = &mut self.arena[child] {
                entries.push(moved);
            }
            if let Node::Internal { keys, .. } = &mut self.arena[parent] {
                keys[idx] = new_sep;
            }
        } else {
            let (moved_key, moved_child) = match &mut self.arena[right] {
                Node::Internal { keys, children } => (keys.remove(0), children.remove(0)),
                _ => unreachable!(),
            };
            let old_sep = match &mut self.arena[parent] {
                Node::Internal { keys, .. } => std::mem::replace(&mut keys[idx], moved_key),
                _ => unreachable!(),
            };
            if let Node::Internal { keys, children } = &mut self.arena[child] {
                keys.push(old_sep);
                children.push(moved_child);
            }
        }
    }

    /// Merge `right` into `left`; both are children of `parent` separated by
    /// `parent.keys[sep_idx]`.
    fn merge_children(&mut self, parent: NodeId, sep_idx: usize, left: NodeId, right: NodeId) {
        self.write_visits += 2;
        let sep = match &mut self.arena[parent] {
            Node::Internal { keys, children } => {
                children.remove(sep_idx + 1);
                keys.remove(sep_idx)
            }
            _ => unreachable!(),
        };
        let right_node =
            std::mem::replace(&mut self.arena[right], Node::Free { next_free: NO_NODE });
        match (&mut self.arena[left], right_node) {
            (
                Node::Leaf { entries, next, .. },
                Node::Leaf {
                    entries: mut r_entries,
                    next: r_next,
                    ..
                },
            ) => {
                entries.append(&mut r_entries);
                *next = r_next;
                if r_next != NO_NODE {
                    if let Node::Leaf { prev, .. } = &mut self.arena[r_next] {
                        *prev = left;
                    }
                }
            }
            (
                Node::Internal { keys, children },
                Node::Internal {
                    keys: mut r_keys,
                    children: mut r_children,
                },
            ) => {
                keys.push(sep);
                keys.append(&mut r_keys);
                children.append(&mut r_children);
            }
            _ => unreachable!("sibling kind mismatch"),
        }
        self.free(right);
    }

    /// Iterate entries in key order over the given bounds. Counts read
    /// visits for the descent and each leaf traversed.
    pub fn range(&self, lo: Bound<&K>, hi: Bound<&K>) -> RangeIter<'_, K, V> {
        let (leaf, pos) = match lo {
            Bound::Unbounded => (self.leftmost_leaf(), 0),
            Bound::Included(k) => {
                let leaf = self.descend_to_leaf(k);
                let pos = match &self.arena[leaf] {
                    Node::Leaf { entries, .. } => entries
                        .binary_search_by(|(ek, _)| ek.cmp(k))
                        .unwrap_or_else(|i| i),
                    _ => unreachable!(),
                };
                (leaf, pos)
            }
            Bound::Excluded(k) => {
                let leaf = self.descend_to_leaf(k);
                let pos = match &self.arena[leaf] {
                    Node::Leaf { entries, .. } => {
                        match entries.binary_search_by(|(ek, _)| ek.cmp(k)) {
                            Ok(i) => i + 1,
                            Err(i) => i,
                        }
                    }
                    _ => unreachable!(),
                };
                (leaf, pos)
            }
        };
        RangeIter {
            tree: self,
            leaf,
            pos,
            hi: match hi {
                Bound::Unbounded => Bound::Unbounded,
                Bound::Included(k) => Bound::Included(k.clone()),
                Bound::Excluded(k) => Bound::Excluded(k.clone()),
            },
        }
    }

    /// Iterate all entries in key order.
    pub fn iter(&self) -> RangeIter<'_, K, V> {
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
    /// right); shape (every leaf at depth `height`); leaf links (`next`
    /// from the leftmost leaf visits exactly the leaves reachable from
    /// the root, in order, and `prev` mirrors it); bookkeeping (`len`
    /// entries, `node_count` nodes reachable, every other arena slot on
    /// the free list).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut leaves = Vec::new();
        let mut internals = 0usize;
        self.check_subtree(self.root, 1, None, None, &mut leaves, &mut internals)?;

        let mut count = 0usize;
        let mut last: Option<&K> = None;
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
            for (k, _) in entries {
                if last.is_some_and(|l| l >= k) {
                    return Err(format!("keys out of order at {k:?}"));
                }
                last = Some(k);
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
    /// separators on the way down), occupancy, depth. Appends the leaves
    /// in key order.
    fn check_subtree(
        &self,
        node: NodeId,
        depth: usize,
        lo: Option<&K>,
        hi: Option<&K>,
        leaves: &mut Vec<NodeId>,
        internals: &mut usize,
    ) -> Result<(), String> {
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
                if n >= self.fanout || (!is_root && n < min) {
                    return Err(format!(
                        "leaf {node} holds {n} entries, fanout {}",
                        self.fanout
                    ));
                }
                if let (Some(lo), Some((first, _))) = (lo, entries.first()) {
                    if first < lo {
                        return Err(format!("leaf {node}: {first:?} under separator {lo:?}"));
                    }
                }
                if let (Some(hi), Some((last, _))) = (hi, entries.last()) {
                    if last >= hi {
                        return Err(format!("leaf {node}: {last:?} not under separator {hi:?}"));
                    }
                }
                leaves.push(node);
                Ok(())
            }
            Some(Node::Internal { keys, children }) => {
                *internals += 1;
                let n = children.len();
                if n != keys.len() + 1 {
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
                    let lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let hi = keys.get(i).or(hi);
                    if let (Some(lo), Some(hi)) = (lo, hi) {
                        if lo >= hi {
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

enum InsertResult<K, V> {
    Inserted,
    Replaced(V),
    Split(K, NodeId),
}

/// Ordered iterator over a key range of a [`BTree`].
pub struct RangeIter<'a, K, V> {
    tree: &'a BTree<K, V>,
    leaf: NodeId,
    pos: usize,
    hi: Bound<K>,
}

impl<'a, K: Ord + Clone + Debug, V: Clone> Iterator for RangeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.leaf == NO_NODE {
                return None;
            }
            match &self.tree.arena[self.leaf] {
                Node::Leaf { entries, next, .. } => {
                    if self.pos < entries.len() {
                        let (k, v) = &entries[self.pos];
                        let in_range = match &self.hi {
                            Bound::Unbounded => true,
                            Bound::Included(h) => k <= h,
                            Bound::Excluded(h) => k < h,
                        };
                        if !in_range {
                            self.leaf = NO_NODE;
                            return None;
                        }
                        self.pos += 1;
                        return Some((k, v));
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

    fn build(n: u64, fanout: usize) -> BTree<u64, u64> {
        let mut t = BTree::new(fanout);
        for i in 0..n {
            t.insert(i, i * 10);
        }
        t
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = build(1000, 8);
        for i in 0..1000 {
            assert_eq!(t.get(&i), Some(&(i * 10)));
        }
        assert_eq!(t.get(&1000), None);
        assert_eq!(t.len(), 1000);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_replaces() {
        let mut t = BTree::new(4);
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.insert(1, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1), Some(&"b"));
    }

    /// A key whose order ignores part of it, as an index entry's ignores
    /// its included values.
    #[derive(Debug, Clone)]
    struct Tagged(u32, &'static str);

    impl PartialEq for Tagged {
        fn eq(&self, other: &Tagged) -> bool {
            self.0 == other.0
        }
    }
    impl Eq for Tagged {}
    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Tagged) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Tagged {
        fn cmp(&self, other: &Tagged) -> std::cmp::Ordering {
            self.0.cmp(&other.0)
        }
    }

    #[test]
    fn insert_replaces_the_stored_key_too() {
        let mut t = BTree::new(4);
        for k in 0..20 {
            t.insert(Tagged(k, "old"), k);
        }
        assert_eq!(t.insert(Tagged(7, "new"), 70), Some(7));
        assert_eq!(t.len(), 20);
        let tags: Vec<_> = t.iter().map(|(k, v)| (k.0, k.1, *v)).collect();
        for (k, tag, v) in tags {
            assert_eq!((tag, v), if k == 7 { ("new", 70) } else { ("old", k) });
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn reverse_and_random_insert_order() {
        let mut t = BTree::new(6);
        let mut keys: Vec<u64> = (0..500).collect();
        // Deterministic shuffle without rand: multiplicative permutation.
        keys.sort_by_key(|k| (k.wrapping_mul(2654435761)) % 500);
        for &k in &keys {
            t.insert(k, k);
        }
        t.check_invariants().unwrap();
        let collected: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(collected, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn remove_everything_both_directions() {
        for fanout in [4, 5, 8, 64] {
            let mut t = build(300, fanout);
            for i in 0..150 {
                assert_eq!(t.remove(&i), Some(i * 10), "fanout {fanout} key {i}");
                t.check_invariants().unwrap();
            }
            for i in (150..300).rev() {
                assert_eq!(t.remove(&i), Some(i * 10));
            }
            t.check_invariants().unwrap();
            assert!(t.is_empty());
            assert_eq!(t.height(), 1);
        }
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = build(10, 4);
        assert_eq!(t.remove(&999), None);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn range_scans() {
        let t = build(100, 5);
        let mid: Vec<u64> = t
            .range(Bound::Included(&10), Bound::Excluded(&20))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(mid, (10..20).collect::<Vec<_>>());
        let open: Vec<u64> = t
            .range(Bound::Excluded(&95), Bound::Unbounded)
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(open, vec![96, 97, 98, 99]);
        let all: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn range_empty_interval() {
        let t = build(50, 4);
        assert_eq!(
            t.range(Bound::Included(&30), Bound::Excluded(&30)).count(),
            0
        );
        assert_eq!(t.range(Bound::Included(&200), Bound::Unbounded).count(), 0);
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
        t.get(&5000);
        let visited = t.read_visits() - before;
        assert_eq!(visited as usize, t.height());
    }

    #[test]
    fn visits_reset() {
        let mut t = build(100, 8);
        t.get(&5);
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
            t.remove(&i);
        }
        for i in 0..500 {
            t.insert(i, i);
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
        let mut t: BTree<u64, u64> = BTree::new(4);
        let mut model = std::collections::BTreeMap::new();
        let mut x: u64 = 12345;
        for _ in 0..5000 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 300;
            if x.is_multiple_of(3) {
                assert_eq!(t.remove(&k), model.remove(&k));
            } else {
                assert_eq!(t.insert(k, x), model.insert(k, x));
            }
        }
        t.check_invariants().unwrap();
        let got: Vec<_> = t.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
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
    fn separators_are_first_keys<K: Ord + Clone + Debug, V: Clone>(t: &BTree<K, V>) -> bool {
        fn first_key<K, V>(t: &BTree<K, V>, mut node: NodeId) -> &K {
            loop {
                match &t.arena[node] {
                    Node::Leaf { entries, .. } => return &entries[0].0,
                    Node::Internal { children, .. } => node = children[0],
                    Node::Free { .. } => unreachable!(),
                }
            }
        }
        t.arena.iter().all(|n| match n {
            Node::Internal { keys, children } => keys
                .iter()
                .zip(&children[1..])
                .all(|(k, &c)| k == first_key(t, c)),
            _ => true,
        })
    }

    /// `n` entries in rising order whose first component repeats heavily
    /// (a duplicate index key) and whose second tells them apart (the
    /// row id).
    fn rising(n: usize, distinct: u32, x: &mut u64) -> Vec<((u32, u32), u64)> {
        let mut keys: Vec<(u32, u32)> = (0..n as u32)
            .map(|i| ((xorshift(x) % u64::from(distinct)) as u32, i))
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| (k, u64::from(k.0) << 32 | u64::from(k.1)))
            .collect()
    }

    #[test]
    fn bulk_build_keeps_occupancy_at_every_small_count() {
        for fanout in [4usize, 5, 6, 7, 8, 9, 16, 33, 64] {
            for fill in [0.5, BUILD_FILL, 1.0] {
                for n in 0..=4 * fanout + 2 {
                    let entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 3)).collect();
                    let t = BTree::from_sorted(fanout, fill, entries.clone());
                    t.check_invariants()
                        .unwrap_or_else(|e| panic!("fanout {fanout} fill {fill} n {n}: {e}"));
                    assert!(separators_are_first_keys(&t));
                    assert_eq!(t.len(), n);
                    // One leaf until there is enough for two half-full
                    // ones; never one leaf of `fanout` entries.
                    assert!(t.height() == 1 || n >= 2 * (fanout / 2));
                    assert!(t.height() > 1 || n < fanout);
                    let got: Vec<(usize, usize)> = t.iter().map(|(k, v)| (*k, *v)).collect();
                    assert_eq!(got, entries);
                    assert_eq!(t.write_visits(), 0);
                }
            }
        }
    }

    #[test]
    fn bulk_build_fills_to_the_asked_fraction() {
        // 100,000 entries at fanout 100: 69 a leaf, and one level of
        // internal nodes at 69 children under the root.
        let t = BTree::from_sorted(100, BUILD_FILL, (0..100_000u64).map(|i| (i, ())).collect());
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
        BTree::from_sorted(8, BUILD_FILL, vec![(1, ()), (2, ()), (2, ()), (3, ())]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly rising")]
    fn bulk_build_rejects_falling_keys() {
        BTree::from_sorted(8, BUILD_FILL, vec![(1, ()), (3, ()), (2, ())]);
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

                let bulk = BTree::from_sorted(fanout, fill, entries.clone());
                bulk.check_invariants().map_err(TestCaseError::fail)?;
                prop_assert!(separators_are_first_keys(&bulk));
                prop_assert_eq!(bulk.len(), n);
                prop_assert_eq!(bulk.write_visits(), 0);
                let listed: Vec<_> = bulk.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert!(listed == entries, "iteration differs from the input");

                let mut shuffled = entries.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
                }
                let mut inserted = BTree::new(fanout);
                for (k, v) in shuffled {
                    inserted.insert(k, v);
                }
                inserted.check_invariants().map_err(TestCaseError::fail)?;

                // Probes: present keys, and absent ones on either side.
                let probe = |x: &mut u64| {
                    let r = xorshift(x);
                    (
                        (r % u64::from(distinct + 1)) as u32,
                        (r >> 32) as u32 % (n as u32 + 2),
                    )
                };
                for _ in 0..64 {
                    let k = probe(&mut x);
                    prop_assert_eq!(bulk.get(&k), inserted.get(&k));
                    let (a, b) = (probe(&mut x), probe(&mut x));
                    let (lo, hi) = (a.min(b), a.max(b));
                    for (lo, hi) in [
                        (Bound::Included(&lo), Bound::Excluded(&hi)),
                        (Bound::Excluded(&lo), Bound::Included(&hi)),
                        (Bound::Included(&lo), Bound::Unbounded),
                        (Bound::Unbounded, Bound::Excluded(&hi)),
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
            let mut t = BTree::from_sorted(fanout, BUILD_FILL, entries.clone());
            let mut model: std::collections::BTreeMap<u64, u64> = entries.into_iter().collect();
            for step in 0..4_000 {
                let r = xorshift(&mut x);
                let k = (r >> 8) % 1_400;
                if r % 5 < 2 {
                    assert_eq!(t.insert(k, r), model.insert(k, r));
                } else {
                    assert_eq!(t.remove(&k), model.remove(&k));
                }
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("fanout {fanout} step {step}: {e}"));
            }
            assert!(t.iter().map(|(k, v)| (*k, *v)).eq(model.into_iter()));
        }
    }
}
