//! The read half of the PIO B-tree: point search, MPSearch and prange search.
//!
//! I/O discipline: internal nodes are cached by a write-through buffer pool (the
//! store's page class), and a descent walks the resident ones before it issues
//! any I/O; leaf regions are read with single large requests (`Pr(L)` in the
//! cost model); every batched read goes through one psync call bounded by
//! `PioMax`.
//!
//! A leaf image is touched once: the store hands out the shared image it
//! verified and cached, and a [`LeafView`] answers from those bytes where they
//! lie. Everything a batched call needs besides its result — the sort order,
//! the sorted keys, the descent, a chunk's region list — lives in
//! [`SearchScratch`], which the tree owns and reuses from call to call.

use super::PioBTree;
use crate::entry::OpEntry;
use crate::leaf::LeafView;
use crate::mpsearch::{locate_leaves, locate_leaves_in_range, walk_resident, walk_resident_range, Descent};
use btree::{Key, Value};
use pio::ring::run_pipeline;
use pio::IoResult;
use storage::{AccessHint, PageId, PageImage};

/// Buffers of the batched read paths (and of bupdate's descent), kept by the
/// tree between calls so that a warm call allocates only what it returns. A
/// call takes what it needs out of the tree and puts it back when it is done;
/// a call that fails drops them, and they regrow on the next one.
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    /// Caller positions of a `multi_search` batch, sorted by key.
    order: Vec<u32>,
    /// The batch's keys in that order.
    keys: Vec<Key>,
    /// The leaf regions of the chunk being submitted.
    regions: Vec<(PageId, u64)>,
    pub(crate) descent: Descent,
}

impl PioBTree {
    /// Point search. Consults the OPQ first (Section 3.3), then descends the internal
    /// levels and reads the leaf region.
    pub fn search(&mut self, key: Key) -> IoResult<Option<Value>> {
        self.stats.searches += 1;
        if let Some(verdict) = self.opq.lookup(key) {
            return Ok(verdict);
        }
        let mut descent = std::mem::take(&mut self.scratch.descent);
        self.locate(&[key], &mut descent)?;
        let leaf = descent.leaf(0);
        self.scratch.descent = descent;
        let image = self.read_leaf_image(leaf)?;
        Ok(LeafView::new(leaf, &image, self.config.page_size)?
            .lookup(key)
            .unwrap_or(None))
    }

    /// The one descent entry: fills `out` with the target leaf (and
    /// root-to-parent path) of every key of a sorted set. The resident walk
    /// answers from the page class; at the first internal node it does not
    /// hold, the ticketed store wavefront takes the whole call, which keeps
    /// the paper's `PioMax · (treeHeight − 1)` buffer bound.
    pub(super) fn locate(&mut self, sorted_keys: &[Key], out: &mut Descent) -> IoResult<()> {
        let levels = self.internal_levels();
        let whole = walk_resident(&self.store, self.root, levels, sorted_keys, out)?;
        self.count_walk(whole);
        if whole {
            return Ok(());
        }
        locate_leaves(
            &self.store,
            self.root,
            levels,
            sorted_keys,
            self.config.pio_max,
            self.pipeline_depth,
            out,
        )
    }

    /// [`PioBTree::locate`] for a key range: the first pages of every leaf
    /// intersecting `[lo, hi)`, in key order.
    fn locate_range(&mut self, lo: Key, hi: Key) -> IoResult<Vec<PageId>> {
        let levels = self.internal_levels();
        let walked = walk_resident_range(&self.store, self.root, levels, lo, hi)?;
        self.count_walk(walked.is_some());
        if let Some(leaves) = walked {
            return Ok(leaves);
        }
        locate_leaves_in_range(
            &self.store,
            self.root,
            levels,
            lo,
            hi,
            self.config.pio_max,
            self.pipeline_depth,
        )
    }

    /// Counts a descent the page class answered whole, or one that took the
    /// wavefront.
    fn count_walk(&mut self, whole: bool) {
        if whole {
            self.stats.inner_tier_hits += 1;
        } else {
            self.stats.inner_tier_misses += 1;
        }
    }

    /// Reads one leaf node's region with a single large request.
    pub(super) fn read_leaf_image(&self, leaf: PageId) -> IoResult<PageImage> {
        let region = (leaf, self.config.leaf_segments as u64);
        Ok(self.store.read_regions(&[region])?.pop().expect("one image per region"))
    }

    /// MPSearch: searches every key in `keys` at once, fetching internal nodes and
    /// leaf regions level by level with psync calls bounded by `PioMax`. Results are
    /// returned in the order of `keys`.
    pub fn multi_search(&mut self, keys: &[Key]) -> IoResult<Vec<Option<Value>>> {
        self.stats.multi_searches += 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        let SearchScratch {
            order,
            keys: sorted_keys,
            regions,
            descent,
        } = &mut scratch;
        // Sort the requests, remembering the original positions.
        order.clear();
        order.extend(0..keys.len() as u32);
        order.sort_unstable_by_key(|&i| keys[i as usize]);
        sorted_keys.clear();
        sorted_keys.extend(order.iter().map(|&i| keys[i as usize]));
        self.locate(sorted_keys, descent)?;

        let mut results = vec![None; keys.len()];
        let (pio_max, page_size) = (self.config.pio_max, self.config.page_size);
        let l = self.config.leaf_segments as u64;
        let descent = &*descent;
        let chunk = |group: usize| group * pio_max..((group + 1) * pio_max).min(keys.len());
        // Whether sorted key `i` needs a leaf its predecessor in the chunk did
        // not: sorted keys cluster by leaf, so a chunk's distinct leaves are
        // the starts of its runs — at submission and, in lock step, when the
        // images come back.
        let opens_run = |i: usize, start: usize| i == start || descent.leaf(i) != descent.leaf(i - 1);
        // Pipelined fetch: up to `pipeline_depth` batches stay in flight, so that
        // many psync windows overlap on the device while the CPU resolves the
        // current batch's keys — the depth that fills the device queue instead of
        // flat-lining at double buffering.
        run_pipeline(
            self.pipeline_depth,
            keys.len().div_ceil(pio_max),
            |group| {
                let keys = chunk(group);
                regions.clear();
                regions.extend(
                    keys.clone()
                        .filter(|&i| opens_run(i, keys.start))
                        .map(|i| (descent.leaf(i), l)),
                );
                self.store.submit_read(regions, AccessHint::Point)
            },
            |ticket| self.store.complete_read(ticket),
            |group, images| {
                let keys = chunk(group);
                let mut images = images.iter();
                let mut view = None;
                for i in keys.clone() {
                    if opens_run(i, keys.start) {
                        let image = images.next().expect("one image per distinct leaf");
                        view = Some(LeafView::new(descent.leaf(i), image, page_size)?);
                    }
                    let key = sorted_keys[i];
                    // Map back from the sorted position to the caller's position.
                    results[order[i] as usize] = self
                        .opq
                        .lookup(key)
                        .or_else(|| view.as_ref().expect("the chunk's first key opens a run").lookup(key))
                        .unwrap_or(None);
                }
                Ok(())
            },
        )?;
        self.scratch = scratch;
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
        let (pio_max, page_size) = (self.config.pio_max, self.config.page_size);
        let l = self.config.leaf_segments as u64;
        let batch = |batch_idx: usize| &leaves[batch_idx * pio_max..((batch_idx + 1) * pio_max).min(leaves.len())];
        let regions = &mut self.scratch.regions;
        let store = &self.store;
        // Leaves arrive in key order and cover disjoint key ranges, so each one's
        // entries go straight onto the end of the result.
        let mut found: Vec<(Key, Value)> = Vec::new();
        // Leaf regions are fetched through the same depth-N ticket pipeline as
        // multi_search: later batches ride the device queue while earlier ones
        // are resolved.
        run_pipeline(
            self.pipeline_depth,
            leaves.len().div_ceil(pio_max),
            |batch_idx| {
                regions.clear();
                regions.extend(batch(batch_idx).iter().map(|&p| (p, l)));
                // Scan-hinted: the stream may hit resident leaf regions but
                // never evicts the point-lookup working set.
                store.submit_read(regions, AccessHint::Scan)
            },
            |ticket| store.complete_read(ticket),
            |batch_idx, images| {
                for (&leaf, image) in batch(batch_idx).iter().zip(&images) {
                    LeafView::new(leaf, image, page_size)?.emit_range(lo, hi, &mut found);
                }
                Ok(())
            },
        )?;
        Ok(overlay(found, self.opq.entries_in_range(lo, hi)))
    }
}

/// Overlays queued (not yet flushed) operations on a key-sorted scan result:
/// one merge of the two key orders, in which the newest queued operation on a
/// key decides it.
fn overlay(found: Vec<(Key, Value)>, mut queued: Vec<OpEntry>) -> Vec<(Key, Value)> {
    if queued.is_empty() {
        return found;
    }
    // Stable: operations on one key stay in arrival order.
    queued.sort_by_key(|e| e.key);
    let mut merged = Vec::with_capacity(found.len() + queued.len());
    let mut found = found.into_iter().peekable();
    for (i, e) in queued.iter().enumerate() {
        if queued.get(i + 1).is_some_and(|newer| newer.key == e.key) {
            continue;
        }
        merged.extend(std::iter::from_fn(|| found.next_if(|&(k, _)| k < e.key)));
        found.next_if(|&(k, _)| k == e.key);
        merged.extend(e.verdict().map(|v| (e.key, v)));
    }
    merged.extend(found);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PioConfig;
    use btree::{InternalView, Node};
    use pio::{IoError, SimPsyncIo};
    use ssd_sim::DeviceProfile;
    use std::sync::Arc;
    use storage::{CachedStore, PageStore, WritePolicy};

    /// The two descents against each other, over a seeded tree that grows
    /// from empty through fresh leaf splits, internal splits and a root
    /// growth. After every flush round, the resident walk — first over the
    /// pool the flush left behind, then over one the wavefront warmed — must
    /// record the same leaves and paths ([`Descent`]) and the same range leaf
    /// list as the ticketed wavefront reading the device with the pool
    /// dropped. A walk that skipped a level or took
    /// another child would differ in a path step. A dropped pool sends the
    /// walk to the wavefront.
    #[test]
    fn descent_differential_resident_walk_against_the_wavefront() {
        let seed: u64 = std::env::var("CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_D35C);
        let mut x = seed | 1;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        // 512-byte pages: 32 children per internal node at most, so a few
        // thousand keys split internal nodes and grow the root.
        let config = PioConfig::builder()
            .page_size(512)
            .opq_pages(1)
            .pio_max(16)
            .speriod(50)
            .bcnt(100)
            .pool_pages(1 << 16)
            .build();
        let mut t = PioBTree::create(DeviceProfile::F120, 1 << 30, config).unwrap();
        const SPACE: u64 = 1 << 24;
        for round in 0..30 {
            for _ in 0..100 + rand(200) {
                t.insert(rand(SPACE), round).unwrap();
            }
            t.checkpoint().unwrap();
            let (store, root, levels) = (Arc::clone(t.store()), t.root_page(), t.internal_levels());
            for probe in 0..4 {
                let ctx = format!("CRASH_SEED={seed} round {round} probe {probe}, height {}", t.height());
                let mut keys: Vec<Key> = (0..1 + rand(80)).map(|_| rand(SPACE)).collect();
                keys.sort_unstable();
                let lo = rand(SPACE);
                let hi = lo + rand(SPACE / 8);
                let mut walked = Descent::default();
                assert!(
                    walk_resident(&store, root, levels, &keys, &mut walked).unwrap(),
                    "{ctx}: the pool holds every internal node"
                );
                let walked_range = walk_resident_range(&store, root, levels, lo, hi).unwrap();

                store.drop_cache();
                assert!(!walk_resident(&store, root, levels, &keys, &mut Descent::default()).unwrap());
                assert_eq!(walk_resident_range(&store, root, levels, lo, hi).unwrap(), None);
                let mut expected = Descent::default();
                locate_leaves(&store, root, levels, &keys, 8, 2, &mut expected).unwrap();
                assert_eq!(walked, expected, "{ctx}: leaves and paths of {keys:?}");
                let expected_range = locate_leaves_in_range(&store, root, levels, lo, hi, 8, 2).unwrap();
                assert_eq!(walked_range, Some(expected_range), "{ctx}: leaves of [{lo}, {hi})");
                // Warm every internal node again for the next probe.
                locate_leaves_in_range(&store, root, levels, 0, Key::MAX, 8, 2).unwrap();
            }
        }
        let s = t.stats();
        assert!(
            s.leaf_splits > 0 && s.internal_splits > 0 && s.height_growths > 0,
            "CRASH_SEED={seed}: {s:?}"
        );
    }

    /// Fuzz, one level above the page formats' single-byte mutations: a child
    /// pointer of an internal node rots into a page id the store never handed
    /// out — `u64::MAX`, the allocation high-water mark, or an id so large that
    /// its byte offset wraps around onto a *valid* page (`1 << 52 | k` with
    /// 4 KiB pages, `1 << 53 | k` with these 2 KiB ones). Two passes: in the
    /// cold one the rot lands below the cache and the process restarts, so
    /// neither cache nor checksum sidecar vouches for anything; in the warm
    /// one the rotted node is written through the cache and nothing restarts,
    /// so the pool holds it, the sidecar vouches for it, and the resident
    /// walk follows the wild pointer from memory. Either way, every read that
    /// descends through the pointer is `Corruption`: never a panic (debug
    /// builds: the multiply overflows), never a value (release builds: the
    /// wrapped read returns page `k`'s bytes, for which no checksum is on
    /// record). Reads that do not touch it still answer.
    #[test]
    fn fuzz_rotted_child_pointers_are_corruption_never_an_answer() {
        let seed: u64 = std::env::var("CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_7EEE);
        let mut x = seed | 1;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        const PAGE: usize = 2048;
        let config = PioConfig::builder().page_size(PAGE).leaf_segments(2).pio_max(8).build();
        let store = Arc::new(CachedStore::new(
            PageStore::new(Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 28)), PAGE),
            64,
            WritePolicy::WriteThrough,
        ));
        let entries: Vec<(Key, Value)> = (0..40_000u64).map(|k| (k * 3, k)).collect();
        let mut tree = PioBTree::bulk_load(store, &entries, config).unwrap();
        assert!(tree.height() >= 3, "two internal levels, so both kinds of child rot");
        let raw = Arc::clone(tree.store());
        let high_water = raw.store().high_water_pages();
        let root = tree.root_page();
        let inner = InternalView::new(root, &raw.store().read_page(root).unwrap())
            .unwrap()
            .child(1);

        let mut walks_before_warm = 0;
        for warm in [false, true] {
            if warm {
                walks_before_warm = tree.stats().inner_tier_hits;
            }
            for page in [root, inner] {
                let image = raw.store().read_page(page).unwrap();
                let node = InternalView::new(page, &image).unwrap().to_owned();
                let write = |bytes: &[u8]| {
                    let written = if warm {
                        raw.write_page(page, bytes)
                    } else {
                        raw.store().write_page(page, bytes)
                    };
                    written.unwrap()
                };
                for _ in 0..12 {
                    let slot = rand(node.children.len() as u64) as usize;
                    let valid = node.children[rand(node.children.len() as u64) as usize];
                    for wild in [u64::MAX, high_water, high_water - 1, 1 << 52 | valid, 1 << 53 | valid] {
                        let ctx = format!("CRASH_SEED={seed} warm {warm} page {page} child {slot} -> {wild:#x}");
                        let mut rotted = node.clone();
                        rotted.children[slot] = wild;
                        write(&Node::Internal(rotted).encode(PAGE));
                        if !warm {
                            tree.simulate_crash();
                        }

                        // A key the rotted child covers, and one it does not.
                        let under = if slot == 0 {
                            node.keys[0] - 1
                        } else {
                            node.keys[slot - 1]
                        };
                        let clear = if page == root { None } else { Some(0) };
                        let corrupt = |e: &IoError| matches!(e, IoError::Corruption { .. });
                        assert!(tree.search(under).is_err_and(|e| corrupt(&e)), "{ctx}: search");
                        let batch = [3, under, 30];
                        assert!(
                            tree.multi_search(&batch).is_err_and(|e| corrupt(&e)),
                            "{ctx}: multi_search"
                        );
                        assert!(
                            tree.range_search(under, under + 90).is_err_and(|e| corrupt(&e)),
                            "{ctx}: range_search"
                        );
                        if let Some(key) = clear {
                            assert_eq!(tree.search(key).unwrap(), Some(0), "{ctx}: a subtree the rot spares");
                        }
                    }
                }
                write(&image);
            }
            // Healed; the full scan leaves every internal node in the pool
            // for the warm pass.
            tree.simulate_crash();
            assert_eq!(tree.search(300).unwrap(), Some(100));
            assert_eq!(tree.range_search(0, Key::MAX).unwrap().len(), entries.len());
        }
        assert!(
            tree.stats().inner_tier_hits > walks_before_warm,
            "CRASH_SEED={seed}: the warm pass must walk the resident rotted nodes"
        );
    }
}
