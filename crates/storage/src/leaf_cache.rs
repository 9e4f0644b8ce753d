//! A scan-resistant cache for multi-page leaf regions.
//!
//! The [`crate::BufferPool`] in front of the store caches *single pages* — the
//! internal nodes — and region reads deliberately bypass it (see
//! [`crate::CachedStore::read_region`]), so until this module existed the leaf
//! level of the PIO B-tree was never cached at all. A plain LRU would be the
//! wrong fix: one `range_search` streams every leaf of the range through the
//! cache exactly once and would flush the point-lookup working set on its way
//! through. This cache is therefore a **segmented LRU** (probation +
//! protected) with an explicit **scan bypass**:
//!
//! * Reads carry an [`AccessHint`]. `Point` reads behave like a classic SLRU:
//!   a first touch lands the region in the *probation* segment, a re-reference
//!   promotes it to the *protected* segment (capped at 4/5 of the budget, so
//!   probation always retains churn room), and eviction drains probation
//!   before it touches protected.
//! * `Scan` reads may **hit** an already-cached region (the stream still
//!   benefits from the hot set) but never insert, never promote and never
//!   refresh recency — a full-range scan flows past the cache without evicting
//!   a single resident region. Each such skipped fill is counted in
//!   [`LeafCacheStats::scan_bypasses`].
//!
//! Entries are keyed by the region's first [`PageId`] and weighted by their
//! page count against a fixed page budget. The index is a `BTreeMap` so that
//! single-page writes (bupdate's leaf-segment appends land *inside* a cached
//! region) can find and invalidate the covering region in `O(log n)`.

use crate::bufpool::LRU_SLACK;
use crate::page::PageId;
use std::collections::{BTreeMap, VecDeque};

/// How a leaf-region read intends to use the data — decides cache admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessHint {
    /// Point-lookup-style access: cacheable, re-references promote.
    #[default]
    Point,
    /// Sequential-scan access: may hit resident entries but never inserts,
    /// promotes or refreshes recency.
    Scan,
}

/// Monotonic counters of a [`LeafCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeafCacheStats {
    /// Region reads served from the cache (either hint).
    pub hits: u64,
    /// `Point` reads that had to go to the device (and were then admitted).
    pub misses: u64,
    /// `Scan` reads that went to the device and deliberately skipped admission.
    pub scan_bypasses: u64,
    /// Resident regions evicted to make room.
    pub evictions: u64,
}

impl LeafCacheStats {
    /// Hit ratio over the cache-eligible (`Point`) traffic plus scan hits.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (engine roll-up across shards).
    pub fn merge(&mut self, other: &LeafCacheStats) {
        let LeafCacheStats {
            hits,
            misses,
            scan_bypasses,
            evictions,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.scan_bypasses += scan_bypasses;
        self.evictions += evictions;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

#[derive(Debug)]
struct Entry {
    data: Vec<u8>,
    pages: u64,
    stamp: u64,
    seg: Segment,
}

/// Segmented-LRU leaf-region cache with scan bypass. Not internally
/// synchronised — [`crate::CachedStore`] wraps it in a mutex.
#[derive(Debug)]
pub struct LeafCache {
    capacity_pages: u64,
    /// Ceiling of the protected segment (4/5 of capacity): promotion beyond it
    /// demotes the protected LRU back to probation instead of growing.
    protected_cap: u64,
    entries: BTreeMap<PageId, Entry>,
    /// LRU orders as (page, stamp) queues; stale pairs (entry touched again or
    /// moved segment) are skipped on pop and compacted away once they outnumber
    /// the live ones, like the buffer pool's queue.
    probation: VecDeque<(PageId, u64)>,
    protected: VecDeque<(PageId, u64)>,
    used_pages: u64,
    protected_pages: u64,
    next_stamp: u64,
    stats: LeafCacheStats,
}

impl LeafCache {
    /// Creates a cache holding at most `capacity_pages` pages of leaf regions.
    pub fn new(capacity_pages: u64) -> Self {
        Self {
            capacity_pages,
            protected_cap: capacity_pages * 4 / 5,
            entries: BTreeMap::new(),
            probation: VecDeque::new(),
            protected: VecDeque::new(),
            used_pages: 0,
            protected_pages: 0,
            next_stamp: 0,
            stats: LeafCacheStats::default(),
        }
    }

    /// The configured budget in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Pages currently resident.
    pub fn used_pages(&self) -> u64 {
        self.used_pages
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LeafCacheStats {
        self.stats
    }

    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Looks up the region starting at `first`. `Point` hits promote/refresh;
    /// `Scan` hits leave the LRU state untouched. Misses are counted according
    /// to the hint (`Point` → miss, `Scan` → bypass) — a `Scan` miss tells the
    /// caller *not* to call [`LeafCache::insert`] afterwards.
    pub fn get(&mut self, first: PageId, hint: AccessHint) -> Option<Vec<u8>> {
        if !self.entries.contains_key(&first) {
            match hint {
                AccessHint::Point => self.stats.misses += 1,
                AccessHint::Scan => self.stats.scan_bypasses += 1,
            }
            return None;
        }
        self.stats.hits += 1;
        if hint == AccessHint::Point {
            self.touch(first);
        }
        Some(self.entries[&first].data.clone())
    }

    /// Queues a recency pair on `seg`'s queue, dropping that queue's stale pairs
    /// in place once it is longer than twice the resident entries plus a floor
    /// (see `BufferPool::push_lru`: live pairs keep their order, amortised O(1)).
    fn push(&mut self, seg: Segment, first: PageId, stamp: u64) {
        let queue = match seg {
            Segment::Probation => &mut self.probation,
            Segment::Protected => &mut self.protected,
        };
        queue.push_back((first, stamp));
        if queue.len() > 2 * self.entries.len() + LRU_SLACK {
            let entries = &self.entries;
            queue.retain(|&(page, stamp)| entries.get(&page).is_some_and(|e| e.stamp == stamp && e.seg == seg));
        }
    }

    /// Promotes (or refreshes) `first` after a point re-reference.
    fn touch(&mut self, first: PageId) {
        let stamp = self.stamp();
        let entry = self.entries.get_mut(&first).expect("touch of resident entry");
        entry.stamp = stamp;
        let promoted = entry.seg == Segment::Probation;
        if promoted {
            entry.seg = Segment::Protected;
            self.protected_pages += entry.pages;
        }
        self.push(Segment::Protected, first, stamp);
        if promoted {
            self.shrink_protected();
        }
    }

    /// Demotes protected-LRU entries to probation until the protected segment
    /// is back under its cap. Total residency is unchanged.
    fn shrink_protected(&mut self) {
        while self.protected_pages > self.protected_cap {
            let Some((page, stamp)) = self.protected.pop_front() else {
                break;
            };
            let Some(entry) = self.entries.get_mut(&page) else {
                continue; // invalidated since queued
            };
            if entry.stamp != stamp || entry.seg != Segment::Protected {
                continue; // stale queue pair
            }
            entry.seg = Segment::Probation;
            let fresh = self.next_stamp + 1;
            self.next_stamp = fresh;
            let entry = self.entries.get_mut(&page).expect("still resident");
            entry.stamp = fresh;
            self.protected_pages -= entry.pages;
            self.push(Segment::Probation, page, fresh);
        }
    }

    /// Admits a region fetched by a `Point` read. Re-inserting a resident
    /// region refreshes its bytes in place. Regions larger than the whole
    /// budget are not admitted.
    pub fn insert(&mut self, first: PageId, pages: u64, data: Vec<u8>) {
        if pages == 0 || pages > self.capacity_pages {
            return;
        }
        if let Some(entry) = self.entries.get_mut(&first) {
            // Concurrent missers can race to admit the same region; keep the
            // segment, refresh the bytes.
            entry.data = data;
            return;
        }
        let stamp = self.stamp();
        self.entries.insert(
            first,
            Entry {
                data,
                pages,
                stamp,
                seg: Segment::Probation,
            },
        );
        self.push(Segment::Probation, first, stamp);
        self.used_pages += pages;
        self.evict_to_fit();
    }

    /// Evicts probation-LRU (then protected-LRU) entries until the budget
    /// holds.
    fn evict_to_fit(&mut self) {
        while self.used_pages > self.capacity_pages {
            let (page, stamp, seg) = match self.probation.pop_front() {
                Some((p, s)) => (p, s, Segment::Probation),
                None => match self.protected.pop_front() {
                    Some((p, s)) => (p, s, Segment::Protected),
                    None => break,
                },
            };
            let Some(entry) = self.entries.get(&page) else {
                continue;
            };
            if entry.stamp != stamp || entry.seg != seg {
                continue; // stale queue pair
            }
            let entry = self.entries.remove(&page).expect("checked above");
            self.used_pages -= entry.pages;
            if entry.seg == Segment::Protected {
                self.protected_pages -= entry.pages;
            }
            self.stats.evictions += 1;
        }
    }

    fn remove_entry(&mut self, first: PageId) {
        if let Some(entry) = self.entries.remove(&first) {
            self.used_pages -= entry.pages;
            if entry.seg == Segment::Protected {
                self.protected_pages -= entry.pages;
            }
        }
    }

    /// Drops the region (if any) that *contains* page `p`. Resident regions
    /// are disjoint, so at most one entry can cover any page.
    pub fn invalidate_page(&mut self, p: PageId) {
        if let Some((&first, entry)) = self.entries.range(..=p).next_back() {
            if first + entry.pages > p {
                self.remove_entry(first);
            }
        }
    }

    /// Drops every region intersecting `[first, first + n_pages)`.
    pub fn invalidate_range(&mut self, first: PageId, n_pages: u64) {
        if n_pages == 0 {
            return;
        }
        // One resident region may start below `first` and reach into the
        // range; the rest start inside it.
        self.invalidate_page(first);
        let inside: Vec<PageId> = self.entries.range(first..first + n_pages).map(|(&p, _)| p).collect();
        for p in inside {
            self.remove_entry(p);
        }
    }

    /// Drops everything (crash simulation / cold-phase resets). Counters are
    /// kept — they are monotonic like every other stat in the repo.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.probation.clear();
        self.protected.clear();
        self.used_pages = 0;
        self.protected_pages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(byte: u8, pages: u64) -> Vec<u8> {
        vec![byte; (pages * 16) as usize]
    }

    #[test]
    fn point_miss_admits_and_rereference_promotes() {
        let mut c = LeafCache::new(10);
        assert!(c.get(4, AccessHint::Point).is_none());
        c.insert(4, 2, region(1, 2));
        assert_eq!(c.get(4, AccessHint::Point).unwrap(), region(1, 2));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(c.used_pages(), 2);
    }

    #[test]
    fn scan_miss_is_a_bypass_and_scan_hits_do_not_promote() {
        let mut c = LeafCache::new(10);
        assert!(c.get(4, AccessHint::Scan).is_none());
        assert_eq!(c.stats().scan_bypasses, 1);
        assert_eq!(c.stats().misses, 0);
        // A resident entry still serves scan hits.
        c.insert(4, 2, region(1, 2));
        assert_eq!(c.get(4, AccessHint::Scan).unwrap(), region(1, 2));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn eviction_drains_probation_before_protected() {
        let mut c = LeafCache::new(6);
        // Protect region 0 with a re-reference.
        c.insert(0, 2, region(0, 2));
        c.get(0, AccessHint::Point);
        // Fill with one-touch probation entries; region 0 must survive.
        for i in 0..8u64 {
            let first = 10 + i * 2;
            c.get(first, AccessHint::Point);
            c.insert(first, 2, region(i as u8, 2));
        }
        assert!(
            c.get(0, AccessHint::Scan).is_some(),
            "protected entry evicted by probation churn"
        );
        assert!(c.stats().evictions > 0);
        assert!(c.used_pages() <= 6);
    }

    #[test]
    fn scan_stream_cannot_evict_the_point_working_set() {
        let mut c = LeafCache::new(8);
        // Hot set: 3 regions, touched twice (→ protected).
        for first in [0u64, 2, 4] {
            c.get(first, AccessHint::Point);
            c.insert(first, 2, region(first as u8, 2));
            c.get(first, AccessHint::Point);
        }
        // A 100-region scan streams past.
        for i in 0..100u64 {
            let first = 100 + i * 2;
            if c.get(first, AccessHint::Scan).is_none() {
                // Device fetch happens here; a scan read does NOT insert.
            }
        }
        for first in [0u64, 2, 4] {
            assert!(
                c.get(first, AccessHint::Scan).is_some(),
                "scan evicted hot region {first}"
            );
        }
        assert_eq!(c.stats().scan_bypasses, 100);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn protected_cap_demotes_instead_of_growing() {
        let mut c = LeafCache::new(10); // protected cap = 8
        for first in [0u64, 2, 4, 6, 8] {
            c.get(first, AccessHint::Point);
            c.insert(first, 2, region(first as u8, 2));
            c.get(first, AccessHint::Point); // promote
        }
        // All five were promoted (10 pages), but protected holds ≤ 8 pages:
        // at least one was demoted back to probation, none were lost.
        assert_eq!(c.used_pages(), 10);
        for first in [0u64, 2, 4, 6, 8] {
            assert!(c.get(first, AccessHint::Scan).is_some());
        }
    }

    #[test]
    fn hits_on_a_resident_region_do_not_grow_the_queues() {
        let mut c = LeafCache::new(6);
        for first in [0u64, 2, 4] {
            c.insert(first, 2, region(first as u8, 2));
        }
        // Region 2 is promoted by its first hit and refreshed by the rest.
        for _ in 0..100_000 {
            c.get(2, AccessHint::Point);
            let bound = 2 * c.entries.len() + LRU_SLACK;
            assert!(c.probation.len() <= bound && c.protected.len() <= bound);
        }
        // Compaction kept the live pairs in order: probation still drains
        // oldest-first (0, then 4) before the protected region 2 is touched.
        for (first, survivors) in [(10u64, [2u64, 4]), (12, [2, 10])] {
            c.insert(first, 2, region(9, 2));
            for s in survivors {
                assert!(c.get(s, AccessHint::Scan).is_some(), "region {s} evicted out of order");
            }
        }
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn invalidation_by_interior_page_and_by_range() {
        let mut c = LeafCache::new(16);
        c.insert(4, 4, region(1, 4));
        c.insert(8, 2, region(2, 2));
        // Page 6 lies inside the region starting at 4.
        c.invalidate_page(6);
        assert!(c.get(4, AccessHint::Scan).is_none());
        assert!(c.get(8, AccessHint::Scan).is_some());
        // A range write overlapping [7, 9) kills the region at 8.
        c.invalidate_range(7, 2);
        assert!(c.get(8, AccessHint::Scan).is_none());
        assert_eq!(c.used_pages(), 0);
    }

    #[test]
    fn oversized_region_is_not_admitted_and_clear_empties() {
        let mut c = LeafCache::new(4);
        c.insert(0, 8, region(1, 8));
        assert_eq!(c.used_pages(), 0);
        c.insert(0, 2, region(1, 2));
        assert_eq!(c.used_pages(), 2);
        c.clear();
        assert_eq!(c.used_pages(), 0);
        assert!(c.get(0, AccessHint::Scan).is_none());
    }
}
