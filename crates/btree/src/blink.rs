//! Concurrent baseline: the B-link-tree stand-in used by the Figure 13(b) experiment.
//!
//! The paper compares a *concurrent* PIO B-tree against a Lehman–Yao B-link tree with
//! fine-grained latching. A faithful latch-level B-link implementation is not
//! observable in this reproduction, because the experiments measure **simulated device
//! time** rather than CPU contention; what matters for Figure 13(b) is the *I/O cost
//! structure* of each tree as the number of emulated client threads grows:
//!
//! * searches from different clients are independent and proceed concurrently, so at
//!   thread level `T` up to `T` node reads per tree level are outstanding at once;
//! * the B-link tree runs on a conventional write-back buffer manager, so insert
//!   traffic produces dirty-page evictions that interleave reads and writes (the
//!   paper calls this out as the main reason B-link falls behind);
//! * all B-link I/O lands in one shared index file per relation, while the workload
//!   spreads over 8 relations, so the shared-file write-ordering penalty is minor —
//!   again as the paper observes.
//!
//! [`ConcurrentBTree`] therefore wraps a [`BPlusTree`] behind a lock and exposes
//! *round-based* batch entry points: the per-round operations of the `T` emulated
//! clients are executed with their node reads batched level by level (because the
//! clients genuinely overlap in time), while every structural modification happens
//! under the exclusive lock exactly as a latch-crabbing writer would serialise it.

use crate::node::{Key, Node, Value};
use crate::tree::BPlusTree;
use parking_lot::RwLock;
use pio::IoResult;
use storage::PageId;

/// A thread-safe B+-tree with round-based concurrent search batching, standing in for
/// the paper's B-link tree baseline.
pub struct ConcurrentBTree {
    inner: RwLock<BPlusTree>,
}

impl ConcurrentBTree {
    /// Wraps an existing tree.
    pub fn new(tree: BPlusTree) -> Self {
        Self {
            inner: RwLock::new(tree),
        }
    }

    /// Consumes the wrapper and returns the inner tree.
    pub fn into_inner(self) -> BPlusTree {
        self.inner.into_inner()
    }

    /// Read access to the inner tree for statistics.
    pub fn with_tree<R>(&self, f: impl FnOnce(&BPlusTree) -> R) -> R {
        f(&self.inner.read())
    }

    /// Single point search (any client thread).
    pub fn search(&self, key: Key) -> IoResult<Option<Value>> {
        // A read latch suffices: searches never modify pages.
        let tree = self.inner.read();
        // Reuse the read-only descent of the underlying tree without its &mut stats.
        let mut page = tree.root_page();
        loop {
            let node = Node::decode(page, &tree.store().read_page(page)?)?;
            match node {
                Node::Internal(internal) => page = internal.children[internal.child_for(key)],
                Node::Leaf(leaf) => return Ok(leaf.get(key)),
            }
        }
    }

    /// Executes the point searches of `keys` as one round of concurrent clients: at
    /// each tree level the outstanding node reads of all clients are fetched together
    /// (they are genuinely overlapped in time by the independent threads).
    pub fn concurrent_search(&self, keys: &[Key]) -> IoResult<Vec<Option<Value>>> {
        let tree = self.inner.read();
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let mut frontier: Vec<PageId> = vec![tree.root_page(); keys.len()];
        let mut results: Vec<Option<Value>> = vec![None; keys.len()];
        let mut active: Vec<usize> = (0..keys.len()).collect();
        while !active.is_empty() {
            // One batched read per level: this is what T concurrent synchronous
            // readers look like to the device's command queue.
            let pages: Vec<PageId> = active.iter().map(|&i| frontier[i]).collect();
            let images = tree.store().read_pages(&pages)?;
            let mut still_active = Vec::with_capacity(active.len());
            for (&i, image) in active.iter().zip(&images) {
                match Node::decode(frontier[i], image)? {
                    Node::Internal(internal) => {
                        frontier[i] = internal.children[internal.child_for(keys[i])];
                        still_active.push(i);
                    }
                    Node::Leaf(leaf) => {
                        results[i] = leaf.get(keys[i]);
                    }
                }
            }
            active = still_active;
        }
        Ok(results)
    }

    /// Inserts under the exclusive latch (writers serialise on structure changes).
    pub fn insert(&self, key: Key, value: Value) -> IoResult<()> {
        self.inner.write().insert(key, value)
    }

    /// Deletes under the exclusive latch.
    pub fn delete(&self, key: Key) -> IoResult<bool> {
        self.inner.write().delete(key)
    }

    /// Updates under the exclusive latch.
    pub fn update(&self, key: Key, value: Value) -> IoResult<bool> {
        self.inner.write().update(key, value)
    }

    /// Range search (leaf-chain walk) under a read latch.
    pub fn range_search(&self, lo: Key, hi: Key) -> IoResult<Vec<(Key, Value)>> {
        // The underlying implementation needs &mut only for statistics; take the
        // write lock to reuse it unchanged.
        self.inner.write().range_search(lo, hi)
    }

    /// Flushes dirty buffered nodes (checkpoint / end of experiment).
    pub fn flush(&self) -> IoResult<()> {
        self.inner.read().store().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio::SimPsyncIo;
    use ssd_sim::DeviceProfile;
    use std::sync::Arc;
    use storage::{CachedStore, PageStore, WritePolicy};

    fn concurrent_tree(n: u64) -> ConcurrentBTree {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 30));
        let cached = Arc::new(CachedStore::new(PageStore::new(io, 2048), 256, WritePolicy::WriteBack));
        let entries: Vec<(Key, Value)> = (0..n).map(|k| (k * 2, k)).collect();
        ConcurrentBTree::new(crate::bulk_load(cached, &entries, 0.7).unwrap())
    }

    #[test]
    fn search_and_mutate_through_the_wrapper() {
        let t = concurrent_tree(10_000);
        assert_eq!(t.search(200).unwrap(), Some(100));
        assert_eq!(t.search(201).unwrap(), None);
        t.insert(1_000_001, 7).unwrap();
        assert_eq!(t.search(1_000_001).unwrap(), Some(7));
        assert!(t.delete(1_000_001).unwrap());
        assert_eq!(t.search(1_000_001).unwrap(), None);
        assert!(t.update(200, 5).unwrap());
        assert_eq!(t.search(200).unwrap(), Some(5));
        assert_eq!(t.range_search(0, 20).unwrap().len(), 10);
        t.flush().unwrap();
    }

    #[test]
    fn concurrent_search_matches_sequential_search() {
        let t = concurrent_tree(20_000);
        let keys: Vec<Key> = (0..64u64).map(|i| i * 617 % 40_000).collect();
        let batched = t.concurrent_search(&keys).unwrap();
        for (k, r) in keys.iter().zip(&batched) {
            assert_eq!(*r, t.search(*k).unwrap(), "key {k}");
        }
    }

    #[test]
    fn concurrent_search_costs_less_device_time_than_serial() {
        let t = concurrent_tree(50_000);
        let keys: Vec<Key> = (0..32u64).map(|i| (i * 2_654_435_761) % 100_000).collect();
        t.with_tree(|tree| tree.store().drop_cache());
        let before = t.with_tree(|tree| tree.store().io_elapsed_us());
        t.concurrent_search(&keys).unwrap();
        let batched_cost = t.with_tree(|tree| tree.store().io_elapsed_us()) - before;

        t.with_tree(|tree| tree.store().drop_cache());
        let before = t.with_tree(|tree| tree.store().io_elapsed_us());
        for &k in &keys {
            t.search(k).unwrap();
        }
        let serial_cost = t.with_tree(|tree| tree.store().io_elapsed_us()) - before;
        assert!(
            batched_cost < serial_cost,
            "concurrent clients must overlap their I/O: batched={batched_cost} serial={serial_cost}"
        );
    }

    #[test]
    fn wrapper_is_shareable_across_threads() {
        let t = Arc::new(concurrent_tree(5_000));
        let mut handles = Vec::new();
        for thread in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    // offset well above the preloaded key range so nothing collides
                    let key = (thread + 1) * 1_000_000 + i;
                    t.insert(key, i).unwrap();
                    assert_eq!(t.search(key).unwrap(), Some(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.with_tree(|tree| {
            assert_eq!(tree.len(), 5_000 + 4 * 200);
        });
    }
}
