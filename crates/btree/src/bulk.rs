//! Bottom-up bulk loader.
//!
//! The experiments in Section 4.1 start from an index "initially built with 1 billion
//! entries by using a bulk loader". This module provides that loader: it packs sorted
//! entries into leaves at a chosen fill factor, links the leaf chain, then builds each
//! internal level on top of the previous one. Node images of each level are written
//! with batched psync calls, so loading is itself an example of Principle 2 (high
//! outstanding-I/O level).

use crate::node::{InternalNode, Key, LeafNode, Node, Value};
use crate::tree::BPlusTree;
use pio::IoResult;
use std::sync::Arc;
use storage::{CachedStore, PageId, PageImage, INVALID_PAGE};

/// How many node images are written per psync call while bulk loading.
const WRITE_BATCH: usize = 64;

/// Bulk-loads `entries` (which must be sorted by key and free of duplicates) into a
/// new B+-tree over `store`, packing nodes to `fill_factor` (0 < fill ≤ 1) of their
/// capacity.
pub fn bulk_load(store: Arc<CachedStore>, entries: &[(Key, Value)], fill_factor: f64) -> IoResult<BPlusTree> {
    assert!((0.1..=1.0).contains(&fill_factor), "fill factor must be in (0.1, 1.0]");
    assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "bulk_load requires sorted, duplicate-free input"
    );
    if entries.is_empty() {
        return BPlusTree::new(store);
    }

    let page_size = store.page_size();
    let leaf_cap = ((LeafNode::max_entries(page_size) as f64) * fill_factor).floor() as usize;
    let leaf_cap = leaf_cap.max(1);
    let internal_cap = ((InternalNode::max_children(page_size) as f64) * fill_factor).floor() as usize;
    let internal_cap = internal_cap.max(2);

    // --- Leaf level ---------------------------------------------------------------
    let n_leaves = entries.len().div_ceil(leaf_cap);
    let first_leaf = store.allocate_contiguous(n_leaves as u64);
    let mut level: Vec<(Key, PageId)> = Vec::with_capacity(n_leaves);
    let mut pending: Vec<(PageId, PageImage)> = Vec::with_capacity(WRITE_BATCH);

    for (i, chunk) in entries.chunks(leaf_cap).enumerate() {
        let page = first_leaf + i as u64;
        let next = if i + 1 < n_leaves { page + 1 } else { INVALID_PAGE };
        let leaf = LeafNode {
            entries: chunk.to_vec(),
            next,
        };
        level.push((chunk[0].0, page));
        pending.push((page, Node::Leaf(leaf).encode(page_size)));
        if pending.len() >= WRITE_BATCH {
            flush(&store, &mut pending)?;
        }
    }
    flush(&store, &mut pending)?;

    // --- Internal levels ------------------------------------------------------------
    let mut height = 1usize;
    while level.len() > 1 {
        height += 1;
        let n_nodes = level.len().div_ceil(internal_cap);
        let first = store.allocate_contiguous(n_nodes as u64);
        let mut next_level: Vec<(Key, PageId)> = Vec::with_capacity(n_nodes);
        for (i, chunk) in level.chunks(internal_cap).enumerate() {
            let page = first + i as u64;
            let node = InternalNode {
                keys: chunk.iter().skip(1).map(|&(k, _)| k).collect(),
                children: chunk.iter().map(|&(_, p)| p).collect(),
            };
            next_level.push((chunk[0].0, page));
            pending.push((page, Node::Internal(node).encode(page_size)));
            if pending.len() >= WRITE_BATCH {
                flush(&store, &mut pending)?;
            }
        }
        flush(&store, &mut pending)?;
        level = next_level;
    }

    let root = level[0].1;
    Ok(BPlusTree::from_parts(store, root, height, entries.len() as u64))
}

fn flush(store: &CachedStore, pending: &mut Vec<(PageId, PageImage)>) -> IoResult<()> {
    if pending.is_empty() {
        return Ok(());
    }
    store.store().write_pages(pending)?;
    pending.clear();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio::SimPsyncIo;
    use ssd_sim::DeviceProfile;
    use storage::{PageStore, WritePolicy};

    fn store(page_size: usize) -> Arc<CachedStore> {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 30));
        Arc::new(CachedStore::new(
            PageStore::new(io, page_size),
            512,
            WritePolicy::WriteBack,
        ))
    }

    #[test]
    fn empty_input_builds_an_empty_tree() {
        let mut t = bulk_load(store(2048), &[], 0.7).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.search(1).unwrap(), None);
    }

    #[test]
    fn loaded_tree_finds_every_key() {
        let entries: Vec<(Key, Value)> = (0..50_000u64).map(|k| (k * 3, k)).collect();
        let mut t = bulk_load(store(2048), &entries, 0.7).unwrap();
        assert_eq!(t.len(), entries.len() as u64);
        assert_eq!(t.check_invariants().unwrap(), entries.len() as u64);
        for k in (0..50_000u64).step_by(501) {
            assert_eq!(t.search(k * 3).unwrap(), Some(k));
            assert_eq!(t.search(k * 3 + 1).unwrap(), None);
        }
    }

    #[test]
    fn loaded_tree_supports_range_search_and_updates() {
        let entries: Vec<(Key, Value)> = (0..10_000u64).map(|k| (k, k)).collect();
        let mut t = bulk_load(store(4096), &entries, 0.9).unwrap();
        let r = t.range_search(100, 230).unwrap();
        assert_eq!(r.len(), 130);
        t.insert(20_000, 1).unwrap();
        assert_eq!(t.search(20_000).unwrap(), Some(1));
        assert!(t.delete(0).unwrap());
        assert_eq!(t.search(0).unwrap(), None);
        assert_eq!(t.check_invariants().unwrap(), 10_000);
    }

    #[test]
    fn higher_fill_factor_gives_smaller_tree() {
        let entries: Vec<(Key, Value)> = (0..30_000u64).map(|k| (k, k)).collect();
        let t_low = bulk_load(store(2048), &entries, 0.5).unwrap();
        let t_high = bulk_load(store(2048), &entries, 1.0).unwrap();
        assert!(t_high.store().store().high_water_pages() < t_low.store().store().high_water_pages());
        assert!(t_high.height() <= t_low.height());
    }

    #[test]
    fn bulk_load_uses_batched_writes() {
        let entries: Vec<(Key, Value)> = (0..20_000u64).map(|k| (k, k)).collect();
        let t = bulk_load(store(2048), &entries, 0.7).unwrap();
        let stats = t.store().store().stats();
        assert!(
            stats.write_batches * 4 < stats.page_writes,
            "bulk loading must batch node writes: {} batches for {} pages",
            stats.write_batches,
            stats.page_writes
        );
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_input_is_rejected() {
        let entries = vec![(5u64, 0u64), (3, 0)];
        let _ = bulk_load(store(2048), &entries, 0.7);
    }

    #[test]
    fn single_entry_tree() {
        let mut t = bulk_load(store(2048), &[(42, 7)], 0.7).unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.search(42).unwrap(), Some(7));
    }
}
