//! The read half of the PIO B-tree: point search, MPSearch and prange search.
//!
//! I/O discipline: internal nodes are cached by a write-through buffer pool; leaf
//! regions are read with single large requests (`Pr(L)` in the cost model); every
//! batched read goes through one psync call bounded by `PioMax`.

use super::PioBTree;
use crate::entry::OpKind;
use crate::leaf::PioLeaf;
use crate::mpsearch::{locate_leaves, locate_leaves_in_range, LeafLocation};
use btree::{Key, Value};
use pio::ring::run_pipeline;
use pio::IoResult;
use std::collections::BTreeMap;
use storage::{AccessHint, PageId};

impl PioBTree {
    /// Point search. Consults the OPQ first (Section 3.3), then descends the internal
    /// levels and reads the leaf region.
    pub fn search(&mut self, key: Key) -> IoResult<Option<Value>> {
        self.stats.searches += 1;
        if let Some(verdict) = self.opq.lookup(key) {
            return Ok(verdict);
        }
        let leaf = self.locate(&[key])?[0].leaf;
        Ok(self.read_leaf(leaf)?.lookup(key).unwrap_or(None))
    }

    /// The one descent entry: the target leaf (and root-to-parent path) of every
    /// key of a sorted set. The pinned inner tier answers from memory; when it is
    /// cold, stale or over budget the ticketed store wavefront does, which keeps
    /// the paper's `PioMax · (treeHeight − 1)` buffer bound.
    pub(super) fn locate(&self, sorted_keys: &[Key]) -> IoResult<Vec<LeafLocation>> {
        match self.tier.probe_leaves(self.root, self.height, sorted_keys) {
            Some(locs) => Ok(locs),
            None => locate_leaves(
                &self.store,
                self.root,
                self.internal_levels(),
                sorted_keys,
                self.config.pio_max,
                self.pipeline_depth,
            ),
        }
    }

    /// [`PioBTree::locate`] for a key range: the first pages of every leaf
    /// intersecting `[lo, hi)`, in key order.
    fn locate_range(&self, lo: Key, hi: Key) -> IoResult<Vec<PageId>> {
        match self.tier.probe_range(self.root, self.height, lo, hi) {
            Some(leaves) => Ok(leaves),
            None => locate_leaves_in_range(
                &self.store,
                self.root,
                self.internal_levels(),
                lo,
                hi,
                self.config.pio_max,
                self.pipeline_depth,
            ),
        }
    }

    /// Reads and decodes one leaf node with a single large request.
    pub(super) fn read_leaf(&self, leaf: PageId) -> IoResult<PioLeaf> {
        let config = &self.config;
        let images = self.store.read_regions(&[(leaf, config.leaf_segments as u64)])?;
        Ok(PioLeaf::decode(&images[0], config.leaf_segments, config.page_size))
    }

    /// MPSearch: searches every key in `keys` at once, fetching internal nodes and
    /// leaf regions level by level with psync calls bounded by `PioMax`. Results are
    /// returned in the order of `keys`.
    pub fn multi_search(&mut self, keys: &[Key]) -> IoResult<Vec<Option<Value>>> {
        self.stats.multi_searches += 1;
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // Sort the requests, remembering the original positions.
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let sorted_keys: Vec<Key> = order.iter().map(|&i| keys[i]).collect();
        let locs = self.locate(&sorted_keys)?;

        let mut results = vec![None; keys.len()];
        let l = self.config.leaf_segments as u64;
        // Deduplicated leaf-region list of every PioMax-sized batch, computed up
        // front so later batches can be submitted while earlier ones are decoded.
        let chunk_regions: Vec<Vec<(PageId, u64)>> = locs
            .chunks(self.config.pio_max)
            .map(|group| {
                let mut regions: Vec<(PageId, u64)> = Vec::new();
                for loc in group {
                    if regions.last().map(|&(p, _)| p) != Some(loc.leaf) {
                        regions.push((loc.leaf, l));
                    }
                }
                regions
            })
            .collect();
        // Pipelined fetch: up to `pipeline_depth` batches stay in flight, so that
        // many psync windows overlap on the device while the CPU resolves the
        // current batch's keys — the depth that fills the device queue instead of
        // flat-lining at double buffering.
        let key_chunks: Vec<&[Key]> = sorted_keys.chunks(self.config.pio_max).collect();
        let loc_chunks: Vec<&[LeafLocation]> = locs.chunks(self.config.pio_max).collect();
        run_pipeline(
            self.pipeline_depth,
            chunk_regions.len(),
            |group_idx| self.store.submit_read(&chunk_regions[group_idx], AccessHint::Point),
            |ticket| self.store.complete_read(ticket),
            |group_idx, images| {
                let regions = &chunk_regions[group_idx];
                let leaves: Vec<PioLeaf> = images
                    .iter()
                    .map(|img| PioLeaf::decode(img, self.config.leaf_segments, self.config.page_size))
                    .collect();
                for (pos_in_group, loc) in loc_chunks[group_idx].iter().enumerate() {
                    let leaf_idx = regions
                        .iter()
                        .position(|&(p, _)| p == loc.leaf)
                        .expect("region fetched");
                    let key = key_chunks[group_idx][pos_in_group];
                    // Map back from the sorted position to the caller's position.
                    let original_idx = order[group_idx * self.config.pio_max + pos_in_group];
                    let verdict = self
                        .opq
                        .lookup(key)
                        .or_else(|| leaves[leaf_idx].lookup(key))
                        .unwrap_or(None);
                    results[original_idx] = verdict;
                }
            },
        )?;
        Ok(results)
    }

    /// prange search (Section 3.1.2): reads all internal nodes and leaf regions that
    /// intersect `[lo, hi)` level by level via psync I/O and returns the live entries
    /// in the range, sorted by key.
    pub fn range_search(&mut self, lo: Key, hi: Key) -> IoResult<Vec<(Key, Value)>> {
        self.stats.range_searches += 1;
        if lo >= hi {
            return Ok(Vec::new());
        }
        let leaves = self.locate_range(lo, hi)?;
        let l = self.config.leaf_segments as u64;
        let mut merged: BTreeMap<Key, Value> = BTreeMap::new();
        // Leaf regions are fetched through the same depth-N ticket pipeline as
        // multi_search: later batches ride the device queue while earlier ones
        // are decoded and merged.
        let batches: Vec<&[PageId]> = leaves.chunks(self.config.pio_max).collect();
        run_pipeline(
            self.pipeline_depth,
            batches.len(),
            |batch_idx| {
                let regions: Vec<(PageId, u64)> = batches[batch_idx].iter().map(|&p| (p, l)).collect();
                // Scan-hinted: the stream may hit resident leaf regions but
                // never evicts the point-lookup working set.
                self.store.submit_read(&regions, AccessHint::Scan)
            },
            |ticket| self.store.complete_read(ticket),
            |_, images| {
                for img in &images {
                    let leaf = PioLeaf::decode(img, self.config.leaf_segments, self.config.page_size);
                    for (k, v) in leaf.resolve() {
                        if k >= lo && k < hi {
                            merged.insert(k, v);
                        }
                    }
                }
            },
        )?;
        // Overlay the queued (not yet flushed) operations.
        for e in self.opq.entries_in_range(lo, hi) {
            match e.op {
                OpKind::Insert | OpKind::Update => {
                    merged.insert(e.key, e.value);
                }
                OpKind::Delete => {
                    merged.remove(&e.key);
                }
            }
        }
        Ok(merged.into_iter().collect())
    }
}
