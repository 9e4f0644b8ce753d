//! The read half of the PIO B-tree: point search, MPSearch and prange search.
//!
//! I/O discipline: internal nodes are cached by a write-through buffer pool (the
//! store's one cache); a descent takes each level from the pool while it
//! holds the level's nodes and reads the rest through the store; every
//! level, the leaf level included, is read by the one driver
//! [`read_regions`], in psync calls of at most `PioMax` regions.
//!
//! A point lookup has one path, and `search` is `multi_search` with one key.
//! It runs in three steps. The OPQ answers the keys it decides (Section 3.3),
//! with no I/O. The rest are sorted and located. Each reads one *piece* of
//! its leaf, and the driver gets the distinct pieces in key order, so keys
//! that share a piece share its read, however many keys the call holds. For
//! a leaf the LSMap holds segment fences of ([`crate::LsMap`]: the leaf is
//! strictly ascending inserts, so each key has one segment it can be in) the
//! piece is that one segment page, `(leaf + s, 1)`. Any other leaf is read
//! whole, `(leaf, L)`, with one large request (`Pr(L)` in the cost model)
//! when it is read past the cache. `range_search` reads whole regions. Every
//! leaf read names its pages as leaf pages, cached one page each under any
//! budget: a point read takes whatever pages of a piece are resident, and
//! only the rest travels, one page per request.
//!
//! A leaf image is touched once: the store hands out the shared images it
//! verified and cached — one per page, or one of a region a scan read past
//! the cache — and a [`LeafView`] answers from those bytes where they lie.
//! Everything a batched call needs besides its result — the sort order, the
//! sorted keys, the descent, the pieces and the region list, the ring of
//! tickets in flight — lives in [`SearchScratch`], which the tree owns and
//! reuses from call to call.

use super::PioBTree;
use crate::entry::OpEntry;
use crate::io::read_regions;
use crate::leaf::LeafView;
use crate::mpsearch::{locate_leaves, locate_leaves_in_range, Descent};
use btree::{Key, Value};
use pio::{IoResult, TicketRing};
use storage::{next_region, AccessHint, CachedReadTicket, CachedWriteTicket, PageClass, PageId, PageImage};

/// Buffers of the batched read paths (and of bupdate's descent, leaf reads
/// and leaf records, and the tree's write ring), kept by the tree between
/// calls so that a warm call allocates only what it returns. A
/// call takes what it needs out of the tree and puts it back when it is done;
/// a call that fails drops them, and they regrow on the next one.
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    /// Caller positions of the lookup keys the OPQ does not decide, sorted
    /// by key.
    order: Vec<u32>,
    /// Those keys in that order.
    keys: Vec<Key>,
    /// The leaf piece each of those keys reads ([`PioBTree::leaf_piece`]).
    pieces: Vec<(PageId, u64)>,
    /// The list of leaf regions a call hands the read driver: a lookup's
    /// distinct pieces, a range's leaves.
    regions: Vec<(PageId, u64)>,
    /// The leaf reads in flight.
    pub(crate) ring: TicketRing<CachedReadTicket>,
    /// The writes in flight: every write of the tree passes this one ring.
    pub(crate) writes: TicketRing<CachedWriteTicket>,
    /// The queued operations a `range_search` overlays on its result.
    queued: Vec<OpEntry>,
    pub(crate) descent: Descent,
    /// The records of the leaf a bupdate job is applying.
    pub(crate) leaf_records: Vec<OpEntry>,
}

impl PioBTree {
    /// Point search: a one-key [`PioBTree::multi_search`].
    pub fn search(&mut self, key: Key) -> IoResult<Option<Value>> {
        self.stats.searches += 1;
        let mut result = [None];
        self.lookup(&[key], &mut result)?;
        Ok(result[0])
    }

    /// The piece of `leaf` a point lookup of `key` reads: the one segment page
    /// that can hold the key if the LSMap has the leaf's fences, else the
    /// whole region. With one segment per leaf that is always the leaf.
    fn leaf_piece(&self, leaf: PageId, key: Key) -> (PageId, u64) {
        let l = self.config.leaf_segments as u64;
        match self.lsmap.segment_of(leaf, key) {
            Some(s) if l > 1 => (leaf + s as u64, 1),
            _ => (leaf, l),
        }
    }

    /// The one descent entry: fills `out` with the target leaf (and
    /// root-to-parent path) of every key of a sorted set — MPSearch over the
    /// internal levels ([`locate_leaves`]), which keeps the paper's
    /// `PioMax · (treeHeight − 1)` buffer bound.
    pub(super) fn locate(&mut self, sorted_keys: &[Key], out: &mut Descent) -> IoResult<()> {
        let (levels, pio_max) = (self.internal_levels(), self.config.pio_max);
        let resident = locate_leaves(
            &self.store,
            self.root,
            levels,
            sorted_keys,
            pio_max,
            self.pipeline_depth,
            out,
        )?;
        self.count_walk(resident);
        Ok(())
    }

    /// [`PioBTree::locate`] for a key range: the first pages of every leaf
    /// intersecting `[lo, hi)`, in key order.
    fn locate_range(&mut self, lo: Key, hi: Key) -> IoResult<Vec<PageId>> {
        let (levels, pio_max) = (self.internal_levels(), self.config.pio_max);
        let (leaves, resident) =
            locate_leaves_in_range(&self.store, self.root, levels, lo, hi, pio_max, self.pipeline_depth)?;
        self.count_walk(resident);
        Ok(leaves)
    }

    /// Counts a descent the pool answered whole, or one that read at
    /// least one node through the store.
    fn count_walk(&mut self, resident: bool) {
        if resident {
            self.stats.inner_tier_hits += 1;
        } else {
            self.stats.inner_tier_misses += 1;
        }
    }

    /// Point reads of leaf regions or pieces of them, with one psync call:
    /// the images that tile them, region after region.
    pub(super) fn read_leaves(&self, regions: &[(PageId, u64)]) -> IoResult<Vec<PageImage>> {
        self.store
            .complete_read(self.store.submit_read(regions, PageClass::Leaf, AccessHint::Point)?)
    }

    /// MPSearch: searches every key in `keys` at once, fetching internal nodes and
    /// leaf pieces level by level with psync calls bounded by `PioMax`. Results are
    /// returned in the order of `keys`.
    pub fn multi_search(&mut self, keys: &[Key]) -> IoResult<Vec<Option<Value>>> {
        self.stats.multi_searches += 1;
        let mut results = vec![None; keys.len()];
        self.lookup(keys, &mut results)?;
        Ok(results)
    }

    /// The one point-lookup path, in three steps. The OPQ answers the keys it
    /// decides (Section 3.3). The rest are sorted and located, and each reads
    /// its leaf piece: sorted keys cluster by leaf and, within a fenced leaf,
    /// by segment, so the keys that share a piece are a run, and the read
    /// driver gets each distinct piece once. Fills `results` in the order of
    /// `keys`.
    fn lookup(&mut self, keys: &[Key], results: &mut [Option<Value>]) -> IoResult<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let SearchScratch {
            order,
            keys: sorted_keys,
            pieces,
            regions,
            ring,
            descent,
            ..
        } = &mut scratch;
        order.clear();
        for (i, (&key, result)) in keys.iter().zip(results.iter_mut()).enumerate() {
            match self.opq.lookup(key) {
                Some(verdict) => *result = verdict,
                None => order.push(i as u32),
            }
        }
        if order.is_empty() {
            self.scratch = scratch;
            return Ok(());
        }
        order.sort_unstable_by_key(|&i| keys[i as usize]);
        sorted_keys.clear();
        sorted_keys.extend(order.iter().map(|&i| keys[i as usize]));
        self.locate(sorted_keys, descent)?;
        pieces.clear();
        pieces.extend(
            sorted_keys
                .iter()
                .enumerate()
                .map(|(i, &key)| self.leaf_piece(descent.leaf(i), key)),
        );
        regions.clear();
        regions.extend_from_slice(pieces);
        regions.dedup();
        let l = self.config.leaf_segments as u64;
        self.stats.segment_reads += regions.iter().filter(|&&(_, n)| n < l).count() as u64;

        let page_size = self.config.page_size;
        let mut i = 0;
        ring.set_depth(self.pipeline_depth);
        read_regions(
            &self.store,
            regions,
            PageClass::Leaf,
            AccessHint::Point,
            self.config.pio_max,
            ring,
            |call, images| {
                let mut rest = &images[..];
                for &(first, n) in &regions[call] {
                    let view = LeafView::new(first, next_region(&mut rest, n, page_size), page_size)?;
                    // The piece's run of keys; map each back from its sorted
                    // position to the caller's.
                    while pieces.get(i) == Some(&(first, n)) {
                        results[order[i] as usize] = view.lookup(sorted_keys[i]).unwrap_or(None);
                        i += 1;
                    }
                }
                Ok(())
            },
        )?;
        self.scratch = scratch;
        Ok(())
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
        let (page_size, l) = (self.config.page_size, self.config.leaf_segments as u64);
        let SearchScratch {
            regions, ring, queued, ..
        } = &mut self.scratch;
        regions.clear();
        regions.extend(leaves.iter().map(|&leaf| (leaf, l)));
        ring.set_depth(self.pipeline_depth);
        // Leaves arrive in key order and cover disjoint key ranges, so each one's
        // entries go straight onto the end of the result.
        let mut found: Vec<(Key, Value)> = Vec::new();
        // Scan-hinted: the stream may hit resident leaf pages but never
        // evicts the point-lookup working set.
        read_regions(
            &self.store,
            regions,
            PageClass::Leaf,
            AccessHint::Scan,
            self.config.pio_max,
            ring,
            |call, images| {
                let mut rest = &images[..];
                for &(leaf, n) in &regions[call] {
                    LeafView::new(leaf, next_region(&mut rest, n, page_size), page_size)?
                        .emit_range(lo, hi, &mut found);
                }
                Ok(())
            },
        )?;
        self.opq.entries_in_range(lo, hi, queued);
        Ok(overlay(found, queued))
    }
}

/// Overlays queued (not yet flushed) operations on a key-sorted scan result:
/// one merge of the two key orders, in which the newest queued operation on a
/// key decides it.
fn overlay(found: Vec<(Key, Value)>, queued: &mut [OpEntry]) -> Vec<(Key, Value)> {
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

    /// A textbook descent of one key: one page read per level, below the
    /// cache, and the owned node's routing. Returns the leaf and the
    /// root-to-parent path.
    fn reference_descent(store: &CachedStore, root: PageId, levels: usize, key: Key) -> (PageId, Vec<(PageId, usize)>) {
        let mut page = root;
        let mut path = Vec::new();
        for _ in 0..levels {
            let node = InternalView::new(page, &store.store().read_page(page).unwrap())
                .unwrap()
                .to_owned();
            let child_idx = node.child_for(key);
            path.push((page, child_idx));
            page = node.children[child_idx];
        }
        (page, path)
    }

    /// The textbook range descent: level by level, below the cache, every
    /// child whose separator interval `[keys[j-1], keys[j])` meets `[lo, hi)`.
    /// Returns the leaves and every internal node it read.
    fn reference_range(
        store: &CachedStore,
        root: PageId,
        levels: usize,
        lo: Key,
        hi: Key,
    ) -> (Vec<PageId>, Vec<PageId>) {
        let (mut level, mut read) = (vec![root], Vec::new());
        for _ in 0..levels {
            let mut next = Vec::new();
            for &page in &level {
                let node = InternalView::new(page, &store.store().read_page(page).unwrap())
                    .unwrap()
                    .to_owned();
                let meets = |j: usize| (j == 0 || node.keys[j - 1] < hi) && (j == node.keys.len() || lo < node.keys[j]);
                next.extend((0..node.children.len()).filter(|&j| meets(j)).map(|j| node.children[j]));
            }
            read.append(&mut level);
            level = next;
        }
        (level, read)
    }

    /// The descent against a textbook per-key reference, over a seeded tree
    /// that grows from empty through fresh leaf splits, internal splits and
    /// a root growth. After every flush round, each probe — a sorted key set
    /// and a range — runs over three pools: a warm one (every internal node
    /// resident), a dropped one, and a partially warm one (a random subset of
    /// the internal nodes resident, so levels start in the pool and
    /// finish through the store). Every run must record the reference's
    /// leaves and paths ([`Descent`]) and range leaf list, and report the
    /// pool resident exactly when it held every node the reference
    /// read. A descent that skipped a level or took another child would
    /// differ in a path step.
    #[test]
    fn descent_differential_against_a_per_key_reference() {
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
        let mut mixed = 0;
        for round in 0..30 {
            for _ in 0..100 + rand(200) {
                t.insert(rand(SPACE), round).unwrap();
            }
            t.checkpoint().unwrap();
            let (store, root, levels) = (Arc::clone(t.store()), t.root_page(), t.internal_levels());
            let internal = reference_range(&store, root, levels, 0, Key::MAX).1;
            for probe in 0..4 {
                let mut keys: Vec<Key> = (0..1 + rand(80)).map(|_| rand(SPACE)).collect();
                keys.sort_unstable();
                let lo = rand(SPACE);
                let hi = lo + 1 + rand(SPACE / 8);
                let expected: Vec<_> = keys
                    .iter()
                    .map(|&k| reference_descent(&store, root, levels, k))
                    .collect();
                let keys_read: Vec<PageId> = expected
                    .iter()
                    .flat_map(|(_, path)| path.iter().map(|&(p, _)| p))
                    .collect();
                let (expected_range, range_read) = reference_range(&store, root, levels, lo, hi);
                let (pio_max, depth) = (1 + rand(16) as usize, 1 + rand(4) as usize);
                for pool in ["warm", "dropped", "partial"] {
                    let ctx = format!(
                        "CRASH_SEED={seed} round {round} probe {probe} {pool} pool, height {}, PioMax {pio_max}, depth {depth}",
                        t.height()
                    );
                    // Resets the pool, and returns the internal nodes it holds.
                    let mut prepare = || {
                        store.drop_cache();
                        let resident: Vec<PageId> = match pool {
                            "warm" => internal.clone(),
                            "dropped" => Vec::new(),
                            _ => internal
                                .iter()
                                .copied()
                                .filter(|&p| p == root || rand(2) == 0)
                                .collect(),
                        };
                        store.read_pages(&resident).unwrap();
                        resident
                    };
                    let held = |resident: &[PageId], read: &[PageId]| read.iter().all(|p| resident.contains(p));

                    let resident = prepare();
                    let mut descent = Descent::default();
                    let whole = locate_leaves(&store, root, levels, &keys, pio_max, depth, &mut descent).unwrap();
                    for (i, (leaf, path)) in expected.iter().enumerate() {
                        assert_eq!(
                            (descent.leaf(i), descent.path(i)),
                            (*leaf, &path[..]),
                            "{ctx}: leaf and path of key {}",
                            keys[i]
                        );
                    }
                    assert_eq!(whole, held(&resident, &keys_read), "{ctx}: resident flag of {keys:?}");

                    let resident = prepare();
                    let (leaves, whole) = locate_leaves_in_range(&store, root, levels, lo, hi, pio_max, depth).unwrap();
                    assert_eq!(leaves, expected_range, "{ctx}: leaves of [{lo}, {hi})");
                    assert_eq!(
                        whole,
                        held(&resident, &range_read),
                        "{ctx}: resident flag of [{lo}, {hi})"
                    );
                    mixed += (pool == "partial" && !whole) as u32;
                }
            }
        }
        let s = t.stats();
        assert!(
            s.leaf_splits > 0 && s.internal_splits > 0 && s.height_growths > 0,
            "CRASH_SEED={seed}: {s:?}"
        );
        assert!(mixed > 0, "CRASH_SEED={seed}: no descent took the mixed path");
    }

    /// The one lookup path's three steps, seen from the device. A batch the
    /// OPQ decides whole reads nothing, not even the internal nodes; a mixed
    /// batch reads the pieces of the keys the OPQ leaves open, each once,
    /// however its keys fall across the `PioMax` calls; and `search` is the
    /// one-key batch, with its answer and its device requests.
    #[test]
    fn lookups_read_only_the_pieces_of_the_keys_the_opq_leaves_open() {
        let config = PioConfig::builder()
            .page_size(2048)
            .leaf_segments(2)
            .opq_pages(4)
            .pio_max(8)
            .pool_pages(64)
            .pipeline_depth(crate::PipelineDepth::Fixed(4))
            .build();
        let store = Arc::new(CachedStore::new(
            PageStore::new(Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 28)), 2048),
            64,
            WritePolicy::WriteThrough,
        ));
        let entries: Vec<(Key, Value)> = (0..20_000u64).map(|k| (k * 4, k)).collect();
        let mut tree = PioBTree::bulk_load(Arc::clone(&store), &entries, config).unwrap();
        // Queued, not flushed: an update, a delete and an insert.
        tree.update(40, 1).unwrap();
        tree.delete(80).unwrap();
        tree.insert(4_001, 7).unwrap();
        assert_eq!(tree.opq_len(), 3);
        // Device reads, read bytes and psync calls of `lookup` from a cold pool.
        let reads_of = |tree: &mut PioBTree, lookup: &dyn Fn(&mut PioBTree) -> Vec<Option<Value>>| {
            store.drop_cache();
            let before = store.store().io().io_stats();
            let answers = lookup(tree);
            let after = store.store().io().io_stats();
            let io = (
                after.reads - before.reads,
                after.read_bytes - before.read_bytes,
                after.batches - before.batches,
            );
            (answers, io)
        };

        let decided = reads_of(&mut tree, &|t| t.multi_search(&[4_001, 40, 80, 40]).unwrap());
        assert_eq!(decided, (vec![Some(7), Some(1), None, Some(1)], (0, 0, 0)));

        // 20 copies of one key span three calls of `PioMax` 8: one piece,
        // read once, beside the queued keys.
        let mut mixed = vec![4_001, 123 * 4, 80];
        mixed.extend([300 * 4; 20]);
        let (answers, io) = reads_of(&mut tree, &|t| t.multi_search(&mixed).unwrap());
        let mut expected = vec![Some(7), Some(123), None];
        expected.extend([Some(300); 20]);
        assert_eq!(answers, expected);
        let open = reads_of(&mut tree, &|t| t.multi_search(&[123 * 4, 300 * 4]).unwrap());
        assert_eq!(io, open.1, "the mixed batch reads what its open keys read");
        let (_, descent) = reads_of(&mut tree, &|t| {
            t.locate(&[123 * 4, 300 * 4], &mut Descent::default()).unwrap();
            Vec::new()
        });
        assert_eq!(
            (io.0 - descent.0, io.1 - descent.1, io.2 - descent.2),
            (2, 2 * 2048, 1),
            "two one-segment pieces in one psync call"
        );

        for key in [0, 40, 80, 4_001, 123 * 4, 300 * 4 + 1, 79_996, 80_000] {
            let one = reads_of(&mut tree, &|t| vec![t.search(key).unwrap()]);
            assert_eq!(
                one,
                reads_of(&mut tree, &|t| t.multi_search(&[key]).unwrap()),
                "key {key}"
            );
        }
    }

    /// Fuzz, one level above the page formats' single-byte mutations: a child
    /// pointer of an internal node rots into a page id the store never handed
    /// out — `u64::MAX`, the allocation high-water mark, or an id so large that
    /// its byte offset wraps around onto a *valid* page (`1 << 52 | k` with
    /// 4 KiB pages, `1 << 53 | k` with these 2 KiB ones). Three passes: in
    /// the cold one the rot lands below the cache and the process restarts,
    /// so neither cache nor checksum sidecar vouches for anything; in the
    /// warm one the rotted node is written through the cache and nothing
    /// restarts, so the pool holds it, the sidecar vouches for it, and the
    /// descent follows the wild pointer from memory; in the partially warm
    /// one it is written through the cache too, but before every read the
    /// pool holds only the other nodes of the top two levels, so the rotted
    /// node's level starts in the pool and the rotted node itself is
    /// read through the store. Whichever way, every read that
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
        let level1 = InternalView::new(root, &raw.store().read_page(root).unwrap())
            .unwrap()
            .to_owned()
            .children;
        let inner = level1[1];

        for pass in ["cold", "warm", "partial"] {
            let before = tree.stats();
            for page in [root, inner] {
                let image = raw.store().read_page(page).unwrap();
                let node = InternalView::new(page, &image).unwrap().to_owned();
                let write = |image: PageImage| {
                    let written = if pass == "cold" {
                        raw.store().write_page(page, image)
                    } else {
                        raw.write_page(page, image)
                    };
                    written.unwrap()
                };
                let others: Vec<PageId> = std::iter::once(root)
                    .chain(level1.iter().copied())
                    .filter(|&p| p != page)
                    .collect();
                // The partially warm pool, refilled before every read: the
                // previous read admitted the rotted node.
                let prepare = || {
                    if pass == "partial" {
                        raw.drop_cache();
                        raw.read_pages(&others).unwrap();
                    }
                };
                for _ in 0..12 {
                    let slot = rand(node.children.len() as u64) as usize;
                    let valid = node.children[rand(node.children.len() as u64) as usize];
                    for wild in [u64::MAX, high_water, high_water - 1, 1 << 52 | valid, 1 << 53 | valid] {
                        let ctx = format!("CRASH_SEED={seed} {pass} page {page} child {slot} -> {wild:#x}");
                        let mut rotted = node.clone();
                        rotted.children[slot] = wild;
                        write(Node::Internal(rotted).encode(PAGE));
                        if pass == "cold" {
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
                        prepare();
                        assert!(tree.search(under).is_err_and(|e| corrupt(&e)), "{ctx}: search");
                        let batch = [3, under, 30];
                        prepare();
                        assert!(
                            tree.multi_search(&batch).is_err_and(|e| corrupt(&e)),
                            "{ctx}: multi_search"
                        );
                        prepare();
                        assert!(
                            tree.range_search(under, under + 90).is_err_and(|e| corrupt(&e)),
                            "{ctx}: range_search"
                        );
                        if let Some(key) = clear {
                            prepare();
                            assert_eq!(tree.search(key).unwrap(), Some(0), "{ctx}: a subtree the rot spares");
                        }
                    }
                }
                write(PageImage::clone(&image));
            }
            // Each pass took its own path: the warm one walked the resident
            // rotted nodes, the partially warm one read the rotted node
            // through the store.
            let after = tree.stats();
            match pass {
                "warm" => assert!(
                    after.inner_tier_hits > before.inner_tier_hits,
                    "CRASH_SEED={seed}: the warm pass must walk the resident rotted nodes"
                ),
                "partial" => assert!(
                    after.inner_tier_misses > before.inner_tier_misses,
                    "CRASH_SEED={seed}: the partially warm pass must read the rotted node through the store"
                ),
                _ => {}
            }
            // Healed; the full scan leaves every internal node in the pool
            // for the next pass.
            tree.simulate_crash();
            assert_eq!(tree.search(300).unwrap(), Some(100));
            assert_eq!(tree.range_search(0, Key::MAX).unwrap().len(), entries.len());
        }
    }
}
