//! The baseline disk B+-tree.
//!
//! Nodes are single pages read and written through a [`CachedStore`] — by default a
//! write-back buffer manager, which is how the paper's baseline behaves: node reads
//! go one at a time down the root-to-leaf path (conventional synchronous I/O), dirty
//! nodes are written back on eviction, and the range search walks the leaf chain one
//! leaf after another.

use crate::node::{InternalNode, Key, LeafNode, Node, Value};
use pio::IoResult;
use std::sync::Arc;
use storage::{CachedStore, PageId, INVALID_PAGE};

/// Operation counters of a [`BPlusTree`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Point searches executed.
    pub searches: u64,
    /// Inserts executed.
    pub inserts: u64,
    /// Deletes executed.
    pub deletes: u64,
    /// Updates executed.
    pub updates: u64,
    /// Range searches executed.
    pub range_searches: u64,
    /// Leaf splits performed.
    pub leaf_splits: u64,
    /// Internal node splits performed.
    pub internal_splits: u64,
    /// Leaf merges performed.
    pub leaf_merges: u64,
    /// Leaf-to-leaf borrow (redistribution) operations performed.
    pub leaf_borrows: u64,
}

/// A disk-resident B+-tree with single-page nodes.
pub struct BPlusTree {
    store: Arc<CachedStore>,
    root: PageId,
    height: usize,
    len: u64,
    stats: TreeStats,
}

impl std::fmt::Debug for BPlusTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BPlusTree")
            .field("root", &self.root)
            .field("height", &self.height)
            .field("len", &self.len)
            .finish()
    }
}

impl BPlusTree {
    /// Creates an empty tree (a single empty leaf as the root).
    pub fn new(store: Arc<CachedStore>) -> IoResult<Self> {
        let root = store.allocate();
        let leaf = LeafNode::default();
        store.write_page(root, leaf.encode(store.page_size()))?;
        Ok(Self {
            store,
            root,
            height: 1,
            len: 0,
            stats: TreeStats::default(),
        })
    }

    /// Builds a tree around an existing root produced by the bulk loader.
    pub(crate) fn from_parts(store: Arc<CachedStore>, root: PageId, height: usize, len: u64) -> Self {
        Self {
            store,
            root,
            height,
            len,
            stats: TreeStats::default(),
        }
    }

    /// The store this tree performs I/O through.
    pub fn store(&self) -> &Arc<CachedStore> {
        &self.store
    }

    /// Number of entries currently indexed.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree in levels (1 = the root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The root page id.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Operation counters.
    pub fn stats(&self) -> TreeStats {
        self.stats
    }

    /// The page size (= node size) in bytes.
    pub fn node_size(&self) -> usize {
        self.store.page_size()
    }

    fn leaf_cap(&self) -> usize {
        LeafNode::max_entries(self.store.page_size())
    }

    fn internal_cap(&self) -> usize {
        InternalNode::max_children(self.store.page_size())
    }

    fn read_node(&self, page: PageId) -> IoResult<Node> {
        Node::decode(page, &self.store.read_page(page)?)
    }

    /// Reads the node at `page`, which the tree's shape says is a leaf.
    fn read_leaf(&self, page: PageId) -> IoResult<LeafNode> {
        Node::decode_leaf(page, &self.store.read_page(page)?)
    }

    fn write_node(&self, page: PageId, node: &Node) -> IoResult<()> {
        self.store.write_page(page, node.encode(self.store.page_size()))
    }

    /// Descends from the root to the leaf responsible for `key`, returning the path
    /// of `(page, node, child_index)` for every internal node visited plus the leaf's
    /// page id and contents.
    #[allow(clippy::type_complexity)]
    fn descend(&self, key: Key) -> IoResult<(Vec<(PageId, InternalNode, usize)>, PageId, LeafNode)> {
        let mut path = Vec::with_capacity(self.height.saturating_sub(1));
        let mut page = self.root;
        loop {
            match self.read_node(page)? {
                Node::Internal(internal) => {
                    let idx = internal.child_for(key);
                    let child = internal.children[idx];
                    path.push((page, internal, idx));
                    page = child;
                }
                Node::Leaf(leaf) => return Ok((path, page, leaf)),
            }
        }
    }

    /// Point search: returns the value for `key`, if present.
    pub fn search(&mut self, key: Key) -> IoResult<Option<Value>> {
        self.stats.searches += 1;
        let (_, _, leaf) = self.descend(key)?;
        Ok(leaf.get(key))
    }

    /// Range search over `[lo, hi)` using the conventional leaf-chain walk: descend to
    /// the leaf containing `lo`, then follow `next` pointers one leaf at a time.
    pub fn range_search(&mut self, lo: Key, hi: Key) -> IoResult<Vec<(Key, Value)>> {
        self.stats.range_searches += 1;
        let mut out = Vec::new();
        if lo >= hi {
            return Ok(out);
        }
        let (_, _, mut leaf) = self.descend(lo)?;
        loop {
            for &(k, v) in &leaf.entries {
                if k >= hi {
                    return Ok(out);
                }
                if k >= lo {
                    out.push((k, v));
                }
            }
            if leaf.next == INVALID_PAGE {
                return Ok(out);
            }
            leaf = self.read_leaf(leaf.next)?;
        }
    }

    /// Inserts `key → value`. Inserting an existing key overwrites its value (and does
    /// not change [`BPlusTree::len`]).
    pub fn insert(&mut self, key: Key, value: Value) -> IoResult<()> {
        self.stats.inserts += 1;
        let (mut path, leaf_page, mut leaf) = self.descend(key)?;
        match leaf.entries.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => {
                leaf.entries[i].1 = value;
                return self.write_node(leaf_page, &Node::Leaf(leaf));
            }
            Err(i) => leaf.entries.insert(i, (key, value)),
        }
        self.len += 1;

        if leaf.entries.len() <= self.leaf_cap() {
            return self.write_node(leaf_page, &Node::Leaf(leaf));
        }

        // Leaf split: move the upper half to a new right sibling.
        self.stats.leaf_splits += 1;
        let split_at = leaf.entries.len() / 2;
        let right_entries = leaf.entries.split_off(split_at);
        let right_page = self.store.allocate();
        let right = LeafNode {
            entries: right_entries,
            next: leaf.next,
        };
        leaf.next = right_page;
        let mut sep_key = right.entries[0].0;
        self.write_node(right_page, &Node::Leaf(right))?;
        self.write_node(leaf_page, &Node::Leaf(leaf))?;
        let mut new_child = right_page;

        // Propagate the separator up the path.
        while let Some((page, mut internal, idx)) = path.pop() {
            internal.keys.insert(idx, sep_key);
            internal.children.insert(idx + 1, new_child);
            if internal.children.len() <= self.internal_cap() {
                return self.write_node(page, &Node::Internal(internal));
            }
            // Internal split.
            self.stats.internal_splits += 1;
            let mid = internal.keys.len() / 2;
            let promote = internal.keys[mid];
            let right_keys = internal.keys.split_off(mid + 1);
            internal.keys.pop(); // the promoted key moves up, it stays in neither half
            let right_children = internal.children.split_off(mid + 1);
            let right_page = self.store.allocate();
            let right = InternalNode {
                keys: right_keys,
                children: right_children,
            };
            self.write_node(right_page, &Node::Internal(right))?;
            self.write_node(page, &Node::Internal(internal))?;
            sep_key = promote;
            new_child = right_page;
        }

        // The root itself split: grow the tree by one level.
        let old_root = self.root;
        let new_root_page = self.store.allocate();
        let new_root = InternalNode {
            keys: vec![sep_key],
            children: vec![old_root, new_child],
        };
        self.write_node(new_root_page, &Node::Internal(new_root))?;
        self.root = new_root_page;
        self.height += 1;
        Ok(())
    }

    /// Updates the value of an existing key. Returns `false` if the key is absent.
    pub fn update(&mut self, key: Key, value: Value) -> IoResult<bool> {
        self.stats.updates += 1;
        let (_, leaf_page, mut leaf) = self.descend(key)?;
        match leaf.entries.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => {
                leaf.entries[i].1 = value;
                self.write_node(leaf_page, &Node::Leaf(leaf))?;
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// Deletes `key`. Returns `false` if the key was absent. Underflowing leaves are
    /// rebalanced by borrowing from or merging with a sibling under the same parent;
    /// internal nodes are allowed to underflow (lazy deletion, as in most production
    /// B-trees) except that a root with a single child is collapsed.
    pub fn delete(&mut self, key: Key) -> IoResult<bool> {
        self.stats.deletes += 1;
        let (mut path, leaf_page, mut leaf) = self.descend(key)?;
        let Ok(i) = leaf.entries.binary_search_by_key(&key, |&(k, _)| k) else {
            return Ok(false);
        };
        leaf.entries.remove(i);
        self.len -= 1;

        let min_fill = self.leaf_cap() / 2;
        if leaf.entries.len() >= min_fill || path.is_empty() {
            self.write_node(leaf_page, &Node::Leaf(leaf))?;
            return Ok(true);
        }

        // Underflow: look at the siblings under the same parent.
        let (parent_page, mut parent, idx) = path.pop().expect("non-root leaf has a parent");

        // Prefer borrowing from the right sibling, then the left, then merge.
        if idx + 1 < parent.children.len() {
            let right_page = parent.children[idx + 1];
            let mut right = self.read_leaf(right_page)?;
            if right.entries.len() > min_fill {
                // Borrow the smallest record of the right sibling.
                self.stats.leaf_borrows += 1;
                let moved = right.entries.remove(0);
                leaf.entries.push(moved);
                parent.keys[idx] = right.entries[0].0;
                self.write_node(right_page, &Node::Leaf(right))?;
                self.write_node(leaf_page, &Node::Leaf(leaf))?;
                self.write_node(parent_page, &Node::Internal(parent))?;
                return Ok(true);
            }
            // Merge the right sibling into this leaf.
            self.stats.leaf_merges += 1;
            leaf.entries.extend(right.entries);
            leaf.next = right.next;
            parent.keys.remove(idx);
            parent.children.remove(idx + 1);
            self.store.free(right_page);
            self.write_node(leaf_page, &Node::Leaf(leaf))?;
            self.finish_parent_after_merge(parent_page, parent, path)?;
            return Ok(true);
        }

        if idx > 0 {
            let left_page = parent.children[idx - 1];
            let mut left = self.read_leaf(left_page)?;
            if left.entries.len() > min_fill {
                // Borrow the largest record of the left sibling.
                self.stats.leaf_borrows += 1;
                let moved = left.entries.pop().expect("non-empty sibling");
                parent.keys[idx - 1] = moved.0;
                leaf.entries.insert(0, moved);
                self.write_node(left_page, &Node::Leaf(left))?;
                self.write_node(leaf_page, &Node::Leaf(leaf))?;
                self.write_node(parent_page, &Node::Internal(parent))?;
                return Ok(true);
            }
            // Merge this leaf into the left sibling.
            self.stats.leaf_merges += 1;
            left.entries.extend(leaf.entries);
            left.next = leaf.next;
            parent.keys.remove(idx - 1);
            parent.children.remove(idx);
            self.store.free(leaf_page);
            self.write_node(left_page, &Node::Leaf(left))?;
            self.finish_parent_after_merge(parent_page, parent, path)?;
            return Ok(true);
        }

        // Only child of its parent (degenerate): just write the shrunken leaf.
        self.write_node(leaf_page, &Node::Leaf(leaf))?;
        Ok(true)
    }

    /// Writes a parent whose child count shrank by one, collapsing the root when it
    /// is left with a single child.
    fn finish_parent_after_merge(
        &mut self,
        parent_page: PageId,
        parent: InternalNode,
        _path: Vec<(PageId, InternalNode, usize)>,
    ) -> IoResult<()> {
        if parent_page == self.root && parent.children.len() == 1 {
            let only_child = parent.children[0];
            self.store.free(parent_page);
            self.root = only_child;
            self.height -= 1;
            return Ok(());
        }
        self.write_node(parent_page, &Node::Internal(parent))
    }

    /// Verifies structural invariants (sortedness, separator correctness, leaf-chain
    /// ordering) and returns the number of entries found. Intended for tests.
    pub fn check_invariants(&self) -> IoResult<u64> {
        fn visit(
            tree: &BPlusTree,
            page: PageId,
            lo: Option<Key>,
            hi: Option<Key>,
            leaves: &mut Vec<(Key, Key)>,
        ) -> IoResult<u64> {
            match tree.read_node(page)? {
                Node::Internal(node) => {
                    assert_eq!(node.children.len(), node.keys.len() + 1, "internal node arity");
                    assert!(node.keys.windows(2).all(|w| w[0] < w[1]), "internal keys sorted");
                    if let (Some(lo), Some(&first)) = (lo, node.keys.first()) {
                        assert!(first >= lo, "separator below subtree bound");
                    }
                    if let (Some(hi), Some(&last)) = (hi, node.keys.last()) {
                        assert!(last < hi, "separator above subtree bound");
                    }
                    let mut total = 0;
                    for (i, &child) in node.children.iter().enumerate() {
                        let child_lo = if i == 0 { lo } else { Some(node.keys[i - 1]) };
                        let child_hi = if i == node.keys.len() { hi } else { Some(node.keys[i]) };
                        total += visit(tree, child, child_lo, child_hi, leaves)?;
                    }
                    Ok(total)
                }
                Node::Leaf(leaf) => {
                    assert!(leaf.entries.windows(2).all(|w| w[0].0 < w[1].0), "leaf keys sorted");
                    for &(k, _) in &leaf.entries {
                        if let Some(lo) = lo {
                            assert!(k >= lo, "leaf key {k} below bound {lo}");
                        }
                        if let Some(hi) = hi {
                            assert!(k < hi, "leaf key {k} above bound {hi}");
                        }
                    }
                    if let (Some(first), Some(last)) = (leaf.entries.first(), leaf.entries.last()) {
                        leaves.push((first.0, last.0));
                    }
                    Ok(leaf.entries.len() as u64)
                }
            }
        }
        let mut leaves = Vec::new();
        let total = visit(self, self.root, None, None, &mut leaves)?;
        assert!(
            leaves.windows(2).all(|w| w[0].1 < w[1].0),
            "leaves must cover disjoint, increasing key ranges"
        );
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio::SimPsyncIo;
    use ssd_sim::DeviceProfile;
    use storage::{PageStore, WritePolicy};

    fn tree(page_size: usize, pool_pages: u64) -> BPlusTree {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 30));
        let store = PageStore::new(io, page_size);
        let cached = Arc::new(CachedStore::new(store, pool_pages, WritePolicy::WriteBack));
        BPlusTree::new(cached).unwrap()
    }

    #[test]
    fn empty_tree_finds_nothing() {
        let mut t = tree(2048, 64);
        assert_eq!(t.search(42).unwrap(), None);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn insert_then_search_small() {
        let mut t = tree(2048, 64);
        for k in [5u64, 1, 9, 3, 7] {
            t.insert(k, k * 100).unwrap();
        }
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(t.search(k).unwrap(), Some(k * 100));
        }
        assert_eq!(t.search(2).unwrap(), None);
        assert_eq!(t.len(), 5);
        assert_eq!(t.check_invariants().unwrap(), 5);
    }

    #[test]
    fn duplicate_insert_overwrites() {
        let mut t = tree(2048, 64);
        t.insert(7, 1).unwrap();
        t.insert(7, 2).unwrap();
        assert_eq!(t.search(7).unwrap(), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn inserts_cause_splits_and_grow_height() {
        let mut t = tree(2048, 256);
        let n = 10_000u64;
        for k in 0..n {
            // pseudo-random order
            let key = (k * 2_654_435_761) % 1_000_003;
            t.insert(key, key).unwrap();
        }
        assert!(t.height() >= 2, "10k entries in 2 KiB nodes must split");
        assert!(t.stats().leaf_splits > 0);
        let total = t.check_invariants().unwrap();
        assert_eq!(total, t.len());
        // Every inserted key must be findable.
        for k in (0..n).step_by(97) {
            let key = (k * 2_654_435_761) % 1_000_003;
            assert_eq!(t.search(key).unwrap(), Some(key));
        }
    }

    #[test]
    fn sequential_inserts_build_a_valid_tree() {
        let mut t = tree(2048, 256);
        for k in 0..5_000u64 {
            t.insert(k, k + 1).unwrap();
        }
        assert_eq!(t.check_invariants().unwrap(), 5_000);
        assert_eq!(t.search(4_999).unwrap(), Some(5_000));
        assert_eq!(t.search(0).unwrap(), Some(1));
    }

    #[test]
    fn range_search_returns_sorted_slice() {
        let mut t = tree(2048, 256);
        for k in 0..2_000u64 {
            t.insert(k * 2, k).unwrap(); // even keys only
        }
        let out = t.range_search(100, 200).unwrap();
        assert_eq!(out.len(), 50);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out[0].0, 100);
        assert_eq!(out.last().unwrap().0, 198);
        // empty and inverted ranges
        assert!(t.range_search(5_000, 6_000).unwrap().is_empty());
        assert!(t.range_search(200, 100).unwrap().is_empty());
    }

    #[test]
    fn update_changes_value_only_for_existing_keys() {
        let mut t = tree(2048, 64);
        t.insert(10, 1).unwrap();
        assert!(t.update(10, 99).unwrap());
        assert!(!t.update(11, 5).unwrap());
        assert_eq!(t.search(10).unwrap(), Some(99));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_removes_and_rebalances() {
        let mut t = tree(2048, 256);
        let n = 4_000u64;
        for k in 0..n {
            t.insert(k, k).unwrap();
        }
        // Delete every other key.
        for k in (0..n).step_by(2) {
            assert!(t.delete(k).unwrap());
        }
        assert!(!t.delete(0).unwrap(), "double delete returns false");
        assert_eq!(t.len(), n / 2);
        assert_eq!(t.check_invariants().unwrap(), n / 2);
        for k in 0..n {
            let expect = if k % 2 == 0 { None } else { Some(k) };
            assert_eq!(t.search(k).unwrap(), expect);
        }
        assert!(t.stats().leaf_merges + t.stats().leaf_borrows > 0);
    }

    #[test]
    fn delete_everything_leaves_a_consistent_empty_tree() {
        let mut t = tree(2048, 256);
        for k in 0..1_000u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..1_000u64 {
            assert!(t.delete(k).unwrap());
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.check_invariants().unwrap(), 0);
        for k in 0..1_000u64 {
            assert_eq!(t.search(k).unwrap(), None);
        }
        // The tree must still be usable afterwards.
        t.insert(5, 50).unwrap();
        assert_eq!(t.search(5).unwrap(), Some(50));
    }

    #[test]
    fn larger_nodes_make_shorter_trees() {
        let build = |page_size| {
            let mut t = tree(page_size, 512);
            for k in 0..20_000u64 {
                t.insert(k, k).unwrap();
            }
            t.height()
        };
        assert!(build(8192) <= build(2048));
    }

    #[test]
    fn stats_count_operations() {
        let mut t = tree(2048, 64);
        t.insert(1, 1).unwrap();
        t.search(1).unwrap();
        t.search(2).unwrap();
        t.update(1, 2).unwrap();
        t.delete(1).unwrap();
        t.range_search(0, 10).unwrap();
        let s = t.stats();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.searches, 2);
        assert_eq!(s.updates, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.range_searches, 1);
    }
}
