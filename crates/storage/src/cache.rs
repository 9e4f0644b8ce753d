//! The one cache: a weighted, segmented LRU over page-addressed entries.
//!
//! An entry is a *region* — `pages` consecutive pages keyed by the first
//! [`PageId`] — and a single page is simply a one-page region.
//! [`crate::CachedStore`] instantiates this structure twice, once per page
//! class (see its docs); the cache itself performs no I/O and knows nothing
//! about classes. Eviction hands every victim back to the caller, which
//! decides whether a write-back is needed. Images are shared and immutable
//! ([`PageImage`]): a hit hands out another reference to the resident image,
//! and a write or a refresh *replaces* the entry's image, so the bytes a
//! reader holds never change under it.
//!
//! The replacement policy is a **segmented LRU** (probation + protected) with
//! an explicit **scan bypass**:
//!
//! * Lookups carry an [`AccessHint`]. `Point` lookups behave like a classic
//!   SLRU: a first touch lands the entry in the *probation* segment, a
//!   re-reference promotes it to the *protected* segment (capped at a fixed
//!   share of the budget, so probation always retains churn room), and
//!   eviction drains probation before it touches protected.
//! * `Scan` lookups may **hit** a resident entry (a stream still benefits from
//!   the hot set) but never promote and never refresh recency, and a `Scan`
//!   miss tells the caller not to admit the fetched image — a full-range scan
//!   flows past the cache without evicting a single resident entry. Each such
//!   skipped fill is counted in [`CacheStats::scan_bypasses`].
//!
//! With a protected share of **zero** the same code is a plain LRU: a
//! re-reference is promoted and at once demoted to the probation tail, which
//! is move-to-back.
//!
//! The index is a `BTreeMap` so that a write to one page can find and drop
//! the region covering it in `O(log n)` (bupdate's leaf-segment appends land
//! *inside* cached leaf regions). Recency lives in two `(page, stamp)` queues;
//! a pair whose stamp or segment no longer matches its entry is stale and
//! skipped on pop, and stale pairs are compacted away in place before they
//! can outnumber the live ones.

use crate::page::{PageId, PageImage};
use std::collections::{BTreeMap, VecDeque};

/// How a read intends to use the data — decides cache admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessHint {
    /// Point-lookup-style access: cacheable, re-references promote.
    #[default]
    Point,
    /// Sequential-scan access: may hit resident entries but never inserts,
    /// promotes or refreshes recency.
    Scan,
}

/// Monotonic counters of a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (either hint).
    pub hits: u64,
    /// `Point` lookups that missed (the caller fetches and admits).
    pub misses: u64,
    /// `Scan` lookups that missed and therefore skip admission.
    pub scan_bypasses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Evicted entries that were dirty (and therefore required a write-back).
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Hit ratio over hits plus `Point` misses, in `[0, 1]`; 0 before any lookup.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (engine roll-up across shards).
    pub fn merge(&mut self, other: &CacheStats) {
        let CacheStats {
            hits,
            misses,
            scan_bypasses,
            evictions,
            dirty_evictions,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.scan_bypasses += scan_bypasses;
        self.evictions += evictions;
        self.dirty_evictions += dirty_evictions;
    }
}

/// An entry evicted from a [`Cache`].
#[derive(Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Key of the evicted entry (its first page id).
    pub page: PageId,
    /// The evicted image.
    pub data: PageImage,
    /// Whether the image was dirty (needs a write-back).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

#[derive(Debug)]
struct Entry {
    data: PageImage,
    pages: u64,
    dirty: bool,
    stamp: u64,
    seg: Segment,
}

/// Queue pairs tolerated beyond twice the resident entries before the stale
/// ones are compacted away.
const LRU_SLACK: usize = 64;

/// Segmented-LRU cache of page regions, bounded by a budget in pages. Not
/// internally synchronised — [`crate::CachedStore`] keeps it behind a mutex.
#[derive(Debug)]
pub struct Cache {
    capacity_pages: u64,
    /// Fifths of the budget the protected segment may hold: promotion beyond
    /// that demotes the protected LRU back to probation instead of growing.
    protected_fifths: u64,
    entries: BTreeMap<PageId, Entry>,
    probation: VecDeque<(PageId, u64)>,
    protected: VecDeque<(PageId, u64)>,
    used_pages: u64,
    protected_pages: u64,
    next_stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache holding at most `capacity_pages` pages of entries, of
    /// which re-referenced entries may pin `protected_fifths`/5 (0 = plain
    /// LRU). A capacity of zero is allowed and simply caches nothing.
    pub fn new(capacity_pages: u64, protected_fifths: u64) -> Self {
        Self {
            capacity_pages,
            protected_fifths,
            entries: BTreeMap::new(),
            probation: VecDeque::new(),
            protected: VecDeque::new(),
            used_pages: 0,
            protected_pages: 0,
            next_stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Pages currently resident.
    pub fn used_pages(&self) -> u64 {
        self.used_pages
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn protected_cap(&self) -> u64 {
        self.capacity_pages * self.protected_fifths / 5
    }

    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Looks up the entry starting at `first`, returning its (shared) image.
    /// `Point` hits promote/refresh; `Scan` hits leave the LRU state untouched.
    /// Misses are counted according to the hint (`Point` → miss, `Scan` →
    /// bypass) — after a `Scan` miss the caller must *not* [`Cache::admit`].
    pub fn get(&mut self, first: PageId, hint: AccessHint) -> Option<PageImage> {
        let hit = self.get_resident(first, hint);
        if hit.is_none() {
            match hint {
                AccessHint::Point => self.stats.misses += 1,
                AccessHint::Scan => self.stats.scan_bypasses += 1,
            }
        }
        hit
    }

    /// [`Cache::get`] for a caller whose fallback is not a fetch of this
    /// entry: a hit is counted and touched alike, an absent entry counts
    /// nothing.
    pub(crate) fn get_resident(&mut self, first: PageId, hint: AccessHint) -> Option<PageImage> {
        let data = PageImage::clone(&self.entries.get(&first)?.data);
        self.stats.hits += 1;
        if hint == AccessHint::Point {
            self.touch(first);
        }
        Some(data)
    }

    /// Queues a recency pair at the tail of `seg`'s queue.
    fn push(&mut self, seg: Segment, first: PageId, stamp: u64) {
        match seg {
            Segment::Probation => self.probation.push_back((first, stamp)),
            Segment::Protected => self.protected.push_back((first, stamp)),
        }
        self.compact();
    }

    /// Keeps each queue within twice the resident entries plus a floor. Every
    /// hit leaves a stale pair behind and only an eviction pops them, so a
    /// working set that fits would otherwise grow the queues for ever. Live
    /// pairs keep their order, so eviction order is unchanged; the floor keeps
    /// tiny caches from compacting constantly and the cost is amortised O(1)
    /// per queue operation.
    fn compact(&mut self) {
        let bound = 2 * self.entries.len() + LRU_SLACK;
        let entries = &self.entries;
        for (seg, queue) in [
            (Segment::Probation, &mut self.probation),
            (Segment::Protected, &mut self.protected),
        ] {
            if queue.len() > bound {
                queue.retain(|&(page, stamp)| entries.get(&page).is_some_and(|e| e.stamp == stamp && e.seg == seg));
            }
        }
    }

    /// Promotes (or refreshes) `first` after a point re-reference.
    fn touch(&mut self, first: PageId) {
        let stamp = self.stamp();
        let entry = self.entries.get_mut(&first).expect("touch of a resident entry");
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

    /// Demotes protected-LRU entries to the probation tail until the protected
    /// segment is back under its cap. Total residency is unchanged.
    fn shrink_protected(&mut self) {
        while self.protected_pages > self.protected_cap() {
            let Some((page, stamp)) = self.protected.pop_front() else {
                break;
            };
            let Some(entry) = self.entries.get_mut(&page) else {
                continue; // invalidated since queued
            };
            if entry.stamp != stamp || entry.seg != Segment::Protected {
                continue; // stale queue pair
            }
            self.next_stamp += 1;
            entry.seg = Segment::Probation;
            entry.stamp = self.next_stamp;
            self.protected_pages -= entry.pages;
            self.push(Segment::Probation, page, self.next_stamp);
        }
    }

    /// A page write: replaces (or inserts) the entry's image and dirty flag
    /// and moves it to the probation tail. Victims evicted to make room are
    /// appended to `victims`. An entry heavier than the whole budget is not
    /// cached.
    pub fn install(&mut self, first: PageId, pages: u64, data: PageImage, dirty: bool, victims: &mut Vec<Evicted>) {
        self.remove_entry(first);
        self.insert(first, pages, data, dirty, victims);
    }

    /// A completed miss: inserts the fetched image if the entry is absent;
    /// otherwise only swaps the image in, leaving segment and recency alone
    /// (two in-flight reads of one region both missed it and both arrive
    /// here). A dirty entry is newer than anything fetched and keeps its
    /// image. Victims are appended to `victims`.
    pub fn admit(&mut self, first: PageId, pages: u64, data: PageImage, victims: &mut Vec<Evicted>) {
        match self.entries.get_mut(&first) {
            Some(entry) if entry.dirty => {}
            Some(entry) => entry.data = data,
            None => self.insert(first, pages, data, false, victims),
        }
    }

    fn insert(&mut self, first: PageId, pages: u64, data: PageImage, dirty: bool, victims: &mut Vec<Evicted>) {
        if pages == 0 || pages > self.capacity_pages {
            return;
        }
        let stamp = self.stamp();
        self.entries.insert(
            first,
            Entry {
                data,
                pages,
                dirty,
                stamp,
                seg: Segment::Probation,
            },
        );
        self.used_pages += pages;
        self.push(Segment::Probation, first, stamp);
        self.evict_to_fit(victims);
    }

    /// Evicts probation-LRU (then protected-LRU) entries until the budget
    /// holds.
    fn evict_to_fit(&mut self, victims: &mut Vec<Evicted>) {
        while self.used_pages > self.capacity_pages {
            let (page, stamp, seg) = match self.probation.pop_front() {
                Some((p, s)) => (p, s, Segment::Probation),
                None => match self.protected.pop_front() {
                    Some((p, s)) => (p, s, Segment::Protected),
                    None => break,
                },
            };
            if !self
                .entries
                .get(&page)
                .is_some_and(|e| e.stamp == stamp && e.seg == seg)
            {
                continue; // stale queue pair
            }
            let entry = self.remove_entry(page).expect("checked above");
            self.stats.evictions += 1;
            self.stats.dirty_evictions += entry.dirty as u64;
            victims.push(Evicted {
                page,
                data: entry.data,
                dirty: entry.dirty,
            });
        }
    }

    /// Drops an entry without counting an eviction.
    fn remove_entry(&mut self, first: PageId) -> Option<Entry> {
        let entry = self.entries.remove(&first)?;
        self.used_pages -= entry.pages;
        if entry.seg == Segment::Protected {
            self.protected_pages -= entry.pages;
        }
        self.compact();
        Some(entry)
    }

    /// Drops the entry (if any) that *contains* page `p`, dirty or not — the
    /// page was freed or rewritten behind the entry's back. Resident entries
    /// are disjoint, so at most one can cover any page.
    pub fn invalidate_page(&mut self, p: PageId) {
        if let Some((&first, entry)) = self.entries.range(..=p).next_back() {
            if first + entry.pages > p {
                self.remove_entry(first);
            }
        }
    }

    /// Drops every entry intersecting `[first, first + n_pages)`.
    pub fn invalidate_range(&mut self, first: PageId, n_pages: u64) {
        if n_pages == 0 {
            return;
        }
        // One resident entry may start below `first` and reach into the
        // range; the rest start inside it.
        self.invalidate_page(first);
        while let Some((&inside, _)) = self.entries.range(first..first + n_pages).next() {
            self.remove_entry(inside);
        }
    }

    /// Cleans every dirty entry (leaving the copies resident) and returns
    /// their images in ascending page order — used by `flush`.
    pub fn take_dirty(&mut self) -> Vec<(PageId, PageImage)> {
        let mut out = Vec::new();
        for (&page, entry) in self.entries.iter_mut().filter(|(_, e)| e.dirty) {
            entry.dirty = false;
            out.push((page, PageImage::clone(&entry.data)));
        }
        out
    }

    /// Changes the budget, evicting entries until the cache fits; the victims
    /// are appended to `victims` so the caller can write back dirty ones.
    pub fn resize(&mut self, capacity_pages: u64, victims: &mut Vec<Evicted>) {
        self.capacity_pages = capacity_pages;
        self.shrink_protected();
        self.evict_to_fit(victims);
    }

    /// Drops everything without writing anything (crash simulation /
    /// cold-phase resets). Counters are kept — they are monotonic like every
    /// other stat in the repo.
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

    fn region(byte: u8, pages: u64) -> PageImage {
        vec![byte; (pages * 16) as usize].into()
    }

    /// A plain-LRU cache (protected share 0) — the page class's configuration.
    fn lru(capacity_pages: u64) -> Cache {
        Cache::new(capacity_pages, 0)
    }

    /// A 4/5-protected cache — the region class's configuration.
    fn slru(capacity_pages: u64) -> Cache {
        Cache::new(capacity_pages, 4)
    }

    /// Inserts a clean entry, returning the victims.
    fn put(c: &mut Cache, first: PageId, pages: u64, dirty: bool) -> Vec<Evicted> {
        let mut victims = Vec::new();
        c.install(first, pages, region(first as u8, pages), dirty, &mut victims);
        victims
    }

    fn admit(c: &mut Cache, first: PageId, pages: u64, data: PageImage) {
        c.admit(first, pages, data, &mut Vec::new());
    }

    fn resident(c: &Cache, first: PageId) -> bool {
        c.entries.contains_key(&first)
    }

    // ------------------------------------------------------------- plain LRU --

    #[test]
    fn hits_and_misses_are_counted() {
        let mut p = lru(4);
        assert!(p.get(1, AccessHint::Point).is_none());
        put(&mut p, 1, 1, false);
        assert_eq!(p.get(1, AccessHint::Point).unwrap(), region(1, 1));
        let s = p.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        let mut sum = s;
        sum.merge(&s);
        assert_eq!((sum.hits, sum.misses), (2, 2));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = lru(3);
        put(&mut p, 1, 1, false);
        put(&mut p, 2, 1, false);
        put(&mut p, 3, 1, false);
        // touch 1 so 2 becomes the LRU victim
        p.get(1, AccessHint::Point);
        let ev = put(&mut p, 4, 1, false);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].page, 2);
        assert!(resident(&p, 1) && !resident(&p, 2) && resident(&p, 3) && resident(&p, 4));
        // Re-installing a resident page moves it to the tail too.
        put(&mut p, 1, 1, false);
        assert_eq!(put(&mut p, 5, 1, false)[0].page, 3);
        assert_eq!(p.protected_pages, 0, "a zero protected share never pins anything");
    }

    #[test]
    fn dirty_evictions_are_flagged() {
        let mut p = lru(1);
        put(&mut p, 1, 1, true);
        let ev = put(&mut p, 2, 1, false);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty);
        assert_eq!(p.stats().dirty_evictions, 1);
    }

    #[test]
    fn weights_count_towards_capacity() {
        let mut p = lru(8);
        put(&mut p, 0, 4, false);
        put(&mut p, 10, 4, false);
        assert_eq!(p.used_pages(), 8);
        // Inserting a 4-page entry must evict one of the existing 4-page entries.
        let ev = put(&mut p, 20, 4, false);
        assert_eq!(ev.len(), 1);
        assert_eq!(p.used_pages(), 8);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let mut p = lru(2);
        let ev = put(&mut p, 1, 3, false);
        assert!(ev.is_empty());
        assert!(!resident(&p, 1));
        assert_eq!(p.used_pages(), 0);
    }

    #[test]
    fn replacement_updates_weight_accounting() {
        let mut p = lru(4);
        put(&mut p, 1, 2, false);
        put(&mut p, 1, 1, false);
        assert_eq!(p.used_pages(), 1);
        assert_eq!(p.entries.len(), 1);
    }

    #[test]
    fn take_dirty_cleans_in_page_order() {
        let mut p = lru(4);
        put(&mut p, 2, 1, true);
        put(&mut p, 1, 1, true);
        put(&mut p, 3, 1, false);
        assert_eq!(p.take_dirty(), vec![(1, region(1, 1)), (2, region(2, 1))]);
        assert!(p.take_dirty().is_empty(), "take_dirty cleans the entries");
        assert!(resident(&p, 1) && resident(&p, 2), "entries stay resident");
        // A fetched image never overwrites a dirty entry; it refreshes a clean one.
        put(&mut p, 1, 1, true);
        admit(&mut p, 1, 1, region(9, 1));
        admit(&mut p, 3, 1, region(9, 1));
        assert_eq!(p.get(1, AccessHint::Scan).unwrap(), region(1, 1));
        assert_eq!(p.get(3, AccessHint::Scan).unwrap(), region(9, 1));
    }

    #[test]
    fn remove_and_clear() {
        let mut p = lru(4);
        put(&mut p, 1, 1, true);
        p.invalidate_page(1);
        assert!(!resident(&p, 1));
        assert!(p.take_dirty().is_empty(), "an invalidated dirty entry is discarded");
        assert_eq!(p.stats().evictions, 0, "invalidation is not an eviction");
        put(&mut p, 2, 1, false);
        p.clear();
        assert!(p.entries.is_empty());
        assert_eq!(p.used_pages(), 0);
    }

    #[test]
    fn zero_capacity_pool_caches_nothing() {
        let mut p = lru(0);
        let ev = put(&mut p, 1, 1, false);
        assert!(ev.is_empty());
        assert!(p.get(1, AccessHint::Point).is_none());
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn hits_on_a_resident_entry_do_not_grow_the_queue() {
        let mut p = lru(3);
        put(&mut p, 1, 1, false);
        put(&mut p, 2, 1, false);
        put(&mut p, 3, 1, false);
        for _ in 0..100_000 {
            p.get(2, AccessHint::Point);
            let bound = 2 * p.entries.len() + LRU_SLACK;
            assert!(p.probation.len() <= bound && p.protected.len() <= bound);
        }
        // Compaction kept the live pairs in order: 1 is still the LRU victim,
        // then 3, and the much-hit 2 goes last.
        assert_eq!(put(&mut p, 4, 1, false)[0].page, 1);
        assert_eq!(put(&mut p, 5, 1, false)[0].page, 3);
        assert_eq!(put(&mut p, 6, 1, false)[0].page, 2);
    }

    #[test]
    fn stale_lru_entries_are_skipped() {
        let mut p = lru(2);
        put(&mut p, 1, 1, false);
        put(&mut p, 2, 1, false);
        // touch page 1 many times to generate stale queue entries for it
        for _ in 0..100 {
            p.get(1, AccessHint::Point);
        }
        let ev = put(&mut p, 3, 1, false);
        // victim must be page 2 (page 1 was touched last), despite the stale entries
        assert_eq!(ev[0].page, 2);
        assert!(resident(&p, 1));
    }

    #[test]
    fn resize_evicts_lru_first_and_hands_back_the_victims() {
        let mut p = lru(4);
        for page in 1..=4 {
            put(&mut p, page, 1, page == 2);
        }
        let mut victims = Vec::new();
        p.resize(1, &mut victims);
        let got: Vec<(PageId, bool)> = victims.iter().map(|v| (v.page, v.dirty)).collect();
        assert_eq!(got, vec![(1, false), (2, true), (3, false)]);
        assert_eq!((p.capacity_pages, p.used_pages()), (1, 1));
    }

    // ---------------------------------------------------------- segmented LRU --

    #[test]
    fn point_miss_admits_and_rereference_promotes() {
        let mut c = slru(10);
        assert!(c.get(4, AccessHint::Point).is_none());
        admit(&mut c, 4, 2, region(1, 2));
        assert_eq!(c.get(4, AccessHint::Point).unwrap(), region(1, 2));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(c.used_pages(), 2);
        assert_eq!(c.protected_pages, 2);
        // A second admission of a resident region (two in-flight reads missed
        // it together) refreshes the bytes and leaves its segment alone.
        admit(&mut c, 4, 2, region(7, 2));
        assert_eq!(c.protected_pages, 2);
        assert_eq!(c.get(4, AccessHint::Scan).unwrap(), region(7, 2));
    }

    #[test]
    fn scan_miss_is_a_bypass_and_scan_hits_do_not_promote() {
        let mut c = slru(10);
        assert!(c.get(4, AccessHint::Scan).is_none());
        assert_eq!(c.stats().scan_bypasses, 1);
        assert_eq!(c.stats().misses, 0);
        // A resident entry still serves scan hits.
        admit(&mut c, 4, 2, region(1, 2));
        assert_eq!(c.get(4, AccessHint::Scan).unwrap(), region(1, 2));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.protected_pages, 0);
    }

    #[test]
    fn eviction_drains_probation_before_protected() {
        let mut c = slru(6);
        // Protect region 0 with a re-reference.
        admit(&mut c, 0, 2, region(0, 2));
        c.get(0, AccessHint::Point);
        // Fill with one-touch probation entries; region 0 must survive.
        for i in 0..8u64 {
            let first = 10 + i * 2;
            c.get(first, AccessHint::Point);
            admit(&mut c, first, 2, region(i as u8, 2));
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
        let mut c = slru(8);
        // Hot set: 3 regions, touched twice (→ protected).
        for first in [0u64, 2, 4] {
            c.get(first, AccessHint::Point);
            admit(&mut c, first, 2, region(first as u8, 2));
            c.get(first, AccessHint::Point);
        }
        // A 100-region scan streams past: the device fetch happens on each
        // miss, and a scan read does NOT admit.
        for i in 0..100u64 {
            assert!(c.get(100 + i * 2, AccessHint::Scan).is_none());
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
        let mut c = slru(10); // protected cap = 8
        for first in [0u64, 2, 4, 6, 8] {
            c.get(first, AccessHint::Point);
            admit(&mut c, first, 2, region(first as u8, 2));
            c.get(first, AccessHint::Point); // promote
        }
        // All five were promoted (10 pages), but protected holds ≤ 8 pages:
        // at least one was demoted back to probation, none were lost.
        assert_eq!(c.used_pages(), 10);
        assert_eq!(c.protected_pages, 8);
        for first in [0u64, 2, 4, 6, 8] {
            assert!(c.get(first, AccessHint::Scan).is_some());
        }
    }

    #[test]
    fn hits_on_a_resident_region_do_not_grow_the_queues() {
        let mut c = slru(6);
        for first in [0u64, 2, 4] {
            admit(&mut c, first, 2, region(first as u8, 2));
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
            admit(&mut c, first, 2, region(9, 2));
            for s in survivors {
                assert!(c.get(s, AccessHint::Scan).is_some(), "region {s} evicted out of order");
            }
        }
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn invalidation_by_interior_page_and_by_range() {
        let mut c = slru(16);
        admit(&mut c, 4, 4, region(1, 4));
        admit(&mut c, 8, 2, region(2, 2));
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
        let mut c = slru(4);
        admit(&mut c, 0, 8, region(1, 8));
        assert_eq!(c.used_pages(), 0);
        admit(&mut c, 0, 2, region(1, 2));
        assert_eq!(c.used_pages(), 2);
        c.clear();
        assert_eq!(c.used_pages(), 0);
        assert!(c.get(0, AccessHint::Scan).is_none());
    }

    // ------------------------------------------------------------ differential --

    /// One entry of the naive reference.
    #[derive(Debug, Clone, PartialEq)]
    struct Slot {
        first: PageId,
        pages: u64,
        data: PageImage,
        dirty: bool,
    }

    /// The naive reference the differential test holds [`Cache`] to: each
    /// segment is a `Vec` kept in recency order (front = next victim), every
    /// operation is a linear scan. No stamps, no stale pairs, no compaction.
    #[derive(Debug, Default)]
    struct Model {
        capacity: u64,
        fifths: u64,
        probation: Vec<Slot>,
        protected: Vec<Slot>,
        stats: CacheStats,
    }

    fn weight(slots: &[Slot]) -> u64 {
        slots.iter().map(|s| s.pages).sum()
    }

    impl Model {
        fn take(&mut self, first: PageId) -> Option<Slot> {
            for seg in [&mut self.probation, &mut self.protected] {
                if let Some(i) = seg.iter().position(|s| s.first == first) {
                    return Some(seg.remove(i));
                }
            }
            None
        }

        fn get(&mut self, first: PageId, hint: AccessHint) -> Option<PageImage> {
            let Some(slot) = self.probation.iter().chain(&self.protected).find(|s| s.first == first) else {
                match hint {
                    AccessHint::Point => self.stats.misses += 1,
                    AccessHint::Scan => self.stats.scan_bypasses += 1,
                }
                return None;
            };
            let data = slot.data.clone();
            self.stats.hits += 1;
            if hint == AccessHint::Point {
                let slot = self.take(first).unwrap();
                self.protected.push(slot);
                self.settle(&mut Vec::new());
            }
            Some(data)
        }

        /// Demotes, then evicts, until both budgets hold.
        fn settle(&mut self, victims: &mut Vec<(PageId, bool)>) {
            while weight(&self.protected) > self.capacity * self.fifths / 5 {
                let slot = self.protected.remove(0);
                self.probation.push(slot);
            }
            while weight(&self.probation) + weight(&self.protected) > self.capacity {
                let seg = if self.probation.is_empty() {
                    &mut self.protected
                } else {
                    &mut self.probation
                };
                let slot = seg.remove(0);
                self.stats.evictions += 1;
                self.stats.dirty_evictions += slot.dirty as u64;
                victims.push((slot.first, slot.dirty));
            }
        }

        fn put(&mut self, slot: Slot, replace: bool, victims: &mut Vec<(PageId, bool)>) {
            if !replace {
                if let Some(old) = self
                    .probation
                    .iter_mut()
                    .chain(&mut self.protected)
                    .find(|s| s.first == slot.first)
                {
                    if !old.dirty {
                        old.data = slot.data;
                    }
                    return;
                }
            }
            self.take(slot.first);
            if slot.pages <= self.capacity {
                self.probation.push(slot);
                self.settle(victims);
            }
        }

        fn invalidate(&mut self, first: PageId, n: u64) {
            for seg in [&mut self.probation, &mut self.protected] {
                seg.retain(|s| n == 0 || s.first + s.pages <= first || first + n <= s.first);
            }
        }

        fn take_dirty(&mut self) -> Vec<(PageId, PageImage)> {
            let mut out = Vec::new();
            for slot in self.probation.iter_mut().chain(&mut self.protected).filter(|s| s.dirty) {
                slot.dirty = false;
                out.push((slot.first, slot.data.clone()));
            }
            out.sort();
            out
        }
    }

    /// The live pairs of one stamp queue, in queue order, as model slots.
    fn live(c: &Cache, seg: Segment) -> Vec<Slot> {
        let queue = match seg {
            Segment::Probation => &c.probation,
            Segment::Protected => &c.protected,
        };
        queue
            .iter()
            .filter_map(|&(first, stamp)| {
                let e = c.entries.get(&first).filter(|e| e.stamp == stamp && e.seg == seg)?;
                Some(Slot {
                    first,
                    pages: e.pages,
                    data: e.data.clone(),
                    dirty: e.dirty,
                })
            })
            .collect()
    }

    /// Drives [`Cache`] and [`Model`] through the same seeded stream of every
    /// public operation, with mixed weights and hints, in both class
    /// configurations, and demands identical answers, counters, victim
    /// sequences and recency orders after every step — plus the structural
    /// invariants the model cannot see. `CRASH_SEED` replays a failure.
    #[test]
    fn differential_against_a_naive_reference() {
        let seed: u64 = std::env::var("CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_CAC4E);
        let mut x = seed | 1;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for fifths in [0u64, 4] {
            let capacity = rand(100);
            let mut cache = Cache::new(capacity, fifths);
            let mut model = Model {
                capacity,
                fifths,
                ..Model::default()
            };
            for step in 0..30_000u32 {
                let ctx = format!("CRASH_SEED={seed} fifths={fifths} step={step}");
                // 24 disjoint slots of 1–4 pages, eight pages apart.
                let slot = rand(24);
                let (first, pages) = (slot * 8, 1 + slot % 4);
                let data = PageImage::from(vec![step as u8; 4]);
                let mut victims = Vec::new();
                let mut expected = Vec::new();
                // Resizes are rare, so between them the cache runs long phases
                // either under eviction pressure or — the slots weigh 60 pages
                // together — with everything resident and only hits, the case
                // in which stale queue pairs pile up.
                match rand(2000) {
                    0..=799 => {
                        let hint = if rand(4) == 0 {
                            AccessHint::Scan
                        } else {
                            AccessHint::Point
                        };
                        assert_eq!(cache.get(first, hint), model.get(first, hint), "{ctx}: get");
                    }
                    800..=1199 => {
                        let dirty = rand(3) == 0;
                        cache.install(first, pages, data.clone(), dirty, &mut victims);
                        let slot = Slot {
                            first,
                            pages,
                            data,
                            dirty,
                        };
                        model.put(slot, true, &mut expected);
                    }
                    1200..=1699 => {
                        cache.admit(first, pages, data.clone(), &mut victims);
                        let slot = Slot {
                            first,
                            pages,
                            data,
                            dirty: false,
                        };
                        model.put(slot, false, &mut expected);
                    }
                    1700..=1799 => {
                        let page = first + rand(8);
                        cache.invalidate_page(page);
                        model.invalidate(page, 1);
                    }
                    1800..=1899 => {
                        let (from, n) = (first + rand(8), rand(20));
                        cache.invalidate_range(from, n);
                        model.invalidate(from, n);
                    }
                    1900..=1989 => assert_eq!(cache.take_dirty(), model.take_dirty(), "{ctx}: take_dirty"),
                    1990..=1997 => {
                        model.capacity = rand(100);
                        cache.resize(model.capacity, &mut victims);
                        model.settle(&mut expected);
                    }
                    _ => {
                        cache.clear();
                        model.probation.clear();
                        model.protected.clear();
                    }
                }
                let victims: Vec<(PageId, bool)> = victims.iter().map(|v| (v.page, v.dirty)).collect();
                assert_eq!(victims, expected, "{ctx}: victim sequence");
                assert_eq!(cache.stats(), model.stats, "{ctx}: counters");
                assert_eq!(
                    live(&cache, Segment::Probation),
                    model.probation,
                    "{ctx}: probation order"
                );
                assert_eq!(
                    live(&cache, Segment::Protected),
                    model.protected,
                    "{ctx}: protected order"
                );
                assert_eq!(
                    cache.entries.len(),
                    model.probation.len() + model.protected.len(),
                    "{ctx}: an entry is on no queue"
                );
                assert_eq!(
                    cache.used_pages,
                    weight(&model.probation) + weight(&model.protected),
                    "{ctx}"
                );
                assert_eq!(cache.protected_pages, weight(&model.protected), "{ctx}");
                assert!(cache.used_pages <= cache.capacity_pages, "{ctx}: over budget");
                assert!(
                    cache.protected_pages <= cache.protected_cap(),
                    "{ctx}: protected over its cap"
                );
                let bound = 2 * cache.entries.len() + LRU_SLACK;
                assert!(
                    cache.probation.len() <= bound && cache.protected.len() <= bound,
                    "{ctx}: stamp queues {}/{} exceed {bound}",
                    cache.probation.len(),
                    cache.protected.len()
                );
            }
        }
    }
}
