//! The one cache: a weighted, segmented LRU over page-addressed entries,
//! each tagged with its [`PageClass`].
//!
//! An entry is a *region* — `pages` consecutive pages keyed by the first
//! [`PageId`] — and a single page is simply a one-page region. Entries of
//! mixed length share the cache (whole leaf regions beside single leaf
//! segments and internal nodes), so two rules keep them apart: a lookup hits
//! only an entry of the same `(first, pages)`, and an admission drops every
//! resident entry it overlaps (a write, [`Cache::install`], replaces only the
//! entry its first page keys). Resident entries are therefore always disjoint,
//! which lets a write to one page find the one entry covering it. The cache
//! performs no I/O: eviction hands every victim back to the caller, which
//! decides whether a write-back is needed. Images are shared and immutable
//! ([`PageImage`]): a hit hands out another reference to the resident image,
//! and a write or a refresh *replaces* the entry's image, so the bytes a
//! reader holds never change under it.
//!
//! The replacement policy is a **segmented LRU** (probation + protected) for
//! leaf entries, with inner entries kept last and an explicit **scan
//! bypass**:
//!
//! * [`PageClass::Inner`] entries live on one plain-LRU list, and eviction
//!   takes one only when no leaf entry is left: every descent walks them.
//! * [`PageClass::Leaf`] lookups with a `Point` [`AccessHint`] behave like a
//!   classic SLRU: a first touch lands the entry in the *probation* segment,
//!   a re-reference promotes it to the *protected* segment (capped at 4/5 of
//!   the budget, so probation always retains churn room), and eviction drains
//!   probation before it touches protected.
//! * `Scan` lookups may **hit** a resident entry (a stream still benefits from
//!   the hot set) but never promote and never refresh recency, and a `Scan`
//!   miss tells the caller not to admit the fetched image — a full-range scan
//!   flows past the cache without evicting a single resident entry. Each such
//!   skipped fill is counted in [`CacheStats::scan_bypasses`].
//!
//! A cache that holds only inner entries is therefore a plain LRU — the
//! paper's buffer pool.
//!
//! The index is a `BTreeMap` from an entry's first page to its slot, so that
//! a write to one page can find and drop the region covering it in
//! `O(log n)` (bupdate's leaf-segment appends land *inside* cached leaf
//! regions). The entries live in a vector of slots, and each list is doubly
//! linked through them, least recently used at the head. A removed entry's
//! slot goes on a free list that the next admission takes first, so the slots
//! never outnumber the most entries ever resident at once. A hit is one index
//! probe, a reference-count bump and an O(1) relink. An admission or a write
//! makes one probe, and so does an eviction, which takes its victim from a
//! list head; a demotion makes none.

use crate::page::{PageId, PageImage};
use std::collections::btree_map::{self, BTreeMap};

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

/// What a cached entry holds, which decides when eviction may take it; the
/// index of its counters in [`Cache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// An internal node (or any page of an index that tags no leaves):
    /// evicted only when no leaf entry is left.
    Inner,
    /// A leaf piece — one segment or a whole region: segmented LRU.
    Leaf,
}

/// Monotonic counters of one class of a [`Cache`].
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

/// A list, which is also its index in [`Cache::lists`], in eviction order:
/// the two segments of the leaf entries, then the inner entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
    Inner,
}

/// Fifths of the budget the protected segment may hold: promotion beyond that
/// demotes the protected LRU back to probation instead of growing.
const PROTECTED_FIFTHS: u64 = 4;

/// The end of a list: the link of a head's `prev`, a tail's `next` and an
/// empty list's ends.
const NIL: usize = usize::MAX;

/// One slot of [`Cache::slots`]: a resident entry, linked into its segment's
/// list, or a vacant slot (no image) waiting on the free list.
#[derive(Debug)]
struct Entry {
    first: PageId,
    data: Option<PageImage>,
    pages: u64,
    dirty: bool,
    seg: Segment,
    prev: usize,
    next: usize,
}

/// The ends of one list: `head` is the least recently used slot (the next to
/// leave), `tail` the most recently used.
#[derive(Debug, Clone, Copy)]
struct List {
    head: usize,
    tail: usize,
}

/// Segmented-LRU cache of page regions, bounded by a budget in pages. Not
/// internally synchronised — [`crate::CachedStore`] keeps it behind a mutex.
#[derive(Debug)]
pub struct Cache {
    capacity_pages: u64,
    /// First page of each resident entry → its slot.
    index: BTreeMap<PageId, usize>,
    slots: Vec<Entry>,
    /// Slots of removed entries, reused before `slots` grows.
    vacant: Vec<usize>,
    /// The probation, protected and inner lists, indexed by [`Segment`].
    lists: [List; 3],
    used_pages: u64,
    protected_pages: u64,
    /// Counters by [`PageClass`]: hits and evictions by the entry's class,
    /// misses by the class asked for.
    stats: [CacheStats; 2],
}

impl Cache {
    /// Creates a cache holding at most `capacity_pages` pages of entries. A
    /// capacity of zero is allowed and simply caches nothing.
    pub fn new(capacity_pages: u64) -> Self {
        Self {
            capacity_pages,
            index: BTreeMap::new(),
            slots: Vec::new(),
            vacant: Vec::new(),
            lists: [List { head: NIL, tail: NIL }; 3],
            used_pages: 0,
            protected_pages: 0,
            stats: [CacheStats::default(); 2],
        }
    }

    /// Pages currently resident.
    pub fn used_pages(&self) -> u64 {
        self.used_pages
    }

    /// Counter snapshot of one class.
    pub fn stats(&self, class: PageClass) -> CacheStats {
        self.stats[class as usize]
    }

    fn protected_cap(&self) -> u64 {
        self.capacity_pages * PROTECTED_FIFTHS / 5
    }

    /// Looks up the entry of `pages` pages starting at `first`, returning its
    /// (shared) image: an entry that starts there with another length is no
    /// hit. `Point` hits promote/refresh; `Scan` hits leave the LRU state
    /// untouched. A miss counts in `class`'s counters according to the hint
    /// (`Point` → miss, `Scan` → bypass) — after a `Scan` miss the caller
    /// must *not* [`Cache::admit`]. An inner lookup is always a `Point` one.
    pub fn get(&mut self, first: PageId, pages: u64, class: PageClass, hint: AccessHint) -> Option<PageImage> {
        let hint = if class == PageClass::Inner {
            AccessHint::Point
        } else {
            hint
        };
        let hit = self.get_resident(first, pages, hint);
        if hit.is_none() {
            let stats = &mut self.stats[class as usize];
            match hint {
                AccessHint::Point => stats.misses += 1,
                AccessHint::Scan => stats.scan_bypasses += 1,
            }
        }
        hit
    }

    /// [`Cache::get`] for a caller whose fallback is not a fetch of this
    /// entry: a hit is counted and touched alike, an absent entry counts
    /// nothing.
    pub(crate) fn get_resident(&mut self, first: PageId, pages: u64, hint: AccessHint) -> Option<PageImage> {
        let slot = *self
            .index
            .get(&first)
            .filter(|&&slot| self.slots[slot].pages == pages)?;
        self.stats[self.class(slot) as usize].hits += 1;
        if hint == AccessHint::Point {
            self.touch(slot);
        }
        self.slots[slot].data.clone()
    }

    /// The entry covering page `p` — its first page and image — for a lookup
    /// no reader made (scrub's heal): counts nothing and leaves recency alone.
    pub(crate) fn covering(&self, p: PageId) -> Option<(PageId, PageImage)> {
        let (first, slot) = self.covering_slot(p)?;
        Some((
            first,
            self.slots[slot].data.clone().expect("a resident entry holds an image"),
        ))
    }

    /// The class of the entry in `slot`.
    fn class(&self, slot: usize) -> PageClass {
        match self.slots[slot].seg {
            Segment::Inner => PageClass::Inner,
            Segment::Probation | Segment::Protected => PageClass::Leaf,
        }
    }

    /// The first page and slot of the entry covering page `p`.
    fn covering_slot(&self, p: PageId) -> Option<(PageId, usize)> {
        let (&first, &slot) = self.index.range(..=p).next_back()?;
        (first + self.slots[slot].pages > p).then_some((first, slot))
    }

    /// Links `slot` at the tail of `seg`'s list.
    fn push_back(&mut self, seg: Segment, slot: usize) {
        let list = &mut self.lists[seg as usize];
        let entry = &mut self.slots[slot];
        (entry.seg, entry.prev, entry.next) = (seg, list.tail, NIL);
        match list.tail {
            NIL => list.head = slot,
            tail => self.slots[tail].next = slot,
        }
        list.tail = slot;
    }

    /// Takes `slot` out of its segment's list.
    fn unlink(&mut self, slot: usize) {
        let Entry { seg, prev, next, .. } = self.slots[slot];
        let list = &mut self.lists[seg as usize];
        match prev {
            NIL => list.head = next,
            prev => self.slots[prev].next = next,
        }
        match next {
            NIL => list.tail = prev,
            next => self.slots[next].prev = prev,
        }
    }

    /// Refreshes an inner entry, or promotes (or refreshes) a leaf entry,
    /// after a point re-reference.
    fn touch(&mut self, slot: usize) {
        let seg = self.slots[slot].seg;
        self.unlink(slot);
        if seg == Segment::Inner {
            return self.push_back(Segment::Inner, slot);
        }
        self.push_back(Segment::Protected, slot);
        if seg == Segment::Probation {
            self.protected_pages += self.slots[slot].pages;
            self.shrink_protected();
        }
    }

    /// Demotes protected-LRU entries to the probation tail until the protected
    /// segment is back under its cap. Total residency is unchanged.
    fn shrink_protected(&mut self) {
        while self.protected_pages > self.protected_cap() {
            let slot = self.lists[Segment::Protected as usize].head;
            self.unlink(slot);
            self.push_back(Segment::Probation, slot);
            self.protected_pages -= self.slots[slot].pages;
        }
    }

    /// A page write: replaces (or inserts) the one-page entry of `page` —
    /// image, dirty flag and class — and moves it to the tail of its class's
    /// first list; the replaced entry's image goes to this thread's spares if
    /// no reader holds it. Victims evicted to make room are appended to
    /// `victims`. A write replaces at most the entry keyed by its own page,
    /// so its caller drops one that covers the page from elsewhere first
    /// ([`Cache::invalidate_around`]).
    pub fn install(
        &mut self,
        page: PageId,
        data: PageImage,
        dirty: bool,
        class: PageClass,
        victims: &mut Vec<Evicted>,
    ) {
        debug_assert!(
            self.covering_slot(page).is_none_or(|(first, _)| first == page),
            "an install overlaps an entry that starts elsewhere"
        );
        // A zero budget holds no entry to replace.
        if self.capacity_pages == 0 {
            return;
        }
        let free = self.free_slot();
        match self.index.entry(page) {
            // The replaced entry's slot is vacated, and its successor takes it.
            btree_map::Entry::Occupied(resident) => {
                let slot = *resident.get();
                pio::recycle_image(self.release(slot).0);
            }
            btree_map::Entry::Vacant(at) => {
                at.insert(free);
            }
        }
        self.occupy(page, 1, data, dirty, class, victims);
    }

    /// A completed miss. If an entry of the same `(first, pages)` is
    /// resident, only swaps the image in, leaving class, segment and recency
    /// alone (two in-flight reads of one region both missed it and both
    /// arrive here), and hands the swapped-out image to this thread's spares.
    /// Otherwise inserts the fetched image as a `class` entry and drops every
    /// resident entry it overlaps, so that entries stay disjoint. A dirty
    /// entry is newer than anything fetched: it keeps its image, and a
    /// fetched image that overlaps one is not admitted. Victims are appended
    /// to `victims`.
    pub fn admit(&mut self, first: PageId, pages: u64, data: PageImage, class: PageClass, victims: &mut Vec<Evicted>) {
        let last = self.overlapping(first, pages).next();
        if let Some(slot) = last.filter(|&slot| (self.slots[slot].first, self.slots[slot].pages) == (first, pages)) {
            let entry = &mut self.slots[slot];
            if !entry.dirty {
                pio::recycle_image(entry.data.replace(data).expect("a resident entry holds an image"));
            }
            return;
        }
        let overlaps_dirty = || self.overlapping(first, pages).any(|slot| self.slots[slot].dirty);
        if pages == 0 || pages > self.capacity_pages || (last.is_some() && overlaps_dirty()) {
            return;
        }
        if last.is_some() {
            self.invalidate_range(first, pages);
        }
        self.index.insert(first, self.free_slot());
        self.occupy(first, pages, data, false, class, victims);
    }

    /// The slot the next admission takes: the last one vacated, else a new one.
    fn free_slot(&self) -> usize {
        self.vacant.last().copied().unwrap_or(self.slots.len())
    }

    /// Fills [`Cache::free_slot`], which the index already maps `first` to,
    /// links it at the tail of its class's first list and evicts to fit.
    fn occupy(
        &mut self,
        first: PageId,
        pages: u64,
        data: PageImage,
        dirty: bool,
        class: PageClass,
        victims: &mut Vec<Evicted>,
    ) {
        let slot = self.free_slot();
        let seg = if class == PageClass::Inner {
            Segment::Inner
        } else {
            Segment::Probation
        };
        let entry = Entry {
            first,
            data: Some(data),
            pages,
            dirty,
            seg,
            prev: NIL,
            next: NIL,
        };
        if self.vacant.pop().is_some() {
            self.slots[slot] = entry;
        } else {
            self.slots.push(entry);
        }
        self.used_pages += pages;
        self.push_back(seg, slot);
        self.evict_to_fit(victims);
    }

    /// Evicts least recently used entries — probation's, then protected's,
    /// then the inner list's — until the budget holds.
    fn evict_to_fit(&mut self, victims: &mut Vec<Evicted>) {
        while self.used_pages > self.capacity_pages {
            let slot = self.lists.iter().map(|list| list.head).find(|&head| head != NIL);
            let slot = slot.expect("a cache over its budget holds an entry");
            let (page, class) = (self.slots[slot].first, self.class(slot));
            self.index.remove(&page);
            let (data, dirty) = self.release(slot);
            let stats = &mut self.stats[class as usize];
            stats.evictions += 1;
            stats.dirty_evictions += dirty as u64;
            victims.push(Evicted { page, data, dirty });
        }
    }

    /// Frees the slot of an entry already dropped from the index, without
    /// counting an eviction; returns its image and dirty flag.
    fn release(&mut self, slot: usize) -> (PageImage, bool) {
        self.unlink(slot);
        self.vacant.push(slot);
        let entry = &mut self.slots[slot];
        self.used_pages -= entry.pages;
        if entry.seg == Segment::Protected {
            self.protected_pages -= entry.pages;
        }
        (entry.data.take().expect("a resident entry holds an image"), entry.dirty)
    }

    /// Drops an entry without counting an eviction and hands its image back
    /// to this thread's spares ([`pio::recycle_image`] keeps it only if no
    /// reader holds it).
    fn discard(&mut self, first: PageId) {
        if let Some(slot) = self.index.remove(&first) {
            pio::recycle_image(self.release(slot).0);
        }
    }

    /// Drops the entry (if any) that *contains* page `p`, dirty or not — the
    /// page was freed or rewritten behind the entry's back. Resident entries
    /// are disjoint, so at most one can cover any page.
    pub fn invalidate_page(&mut self, p: PageId) {
        if let Some((first, _)) = self.covering_slot(p) {
            self.discard(first);
        }
    }

    /// The slots of the resident entries intersecting `[first, first +
    /// n_pages)`, the last first: walking down from the last entry that
    /// starts before the range ends, resident entries being disjoint, the
    /// first one that ends at or below `first` ends the overlap.
    fn overlapping(&self, first: PageId, n_pages: u64) -> impl Iterator<Item = usize> + '_ {
        self.index
            .range(..first.saturating_add(n_pages))
            .rev()
            .map(|(_, &slot)| slot)
            .take_while(move |&slot| self.slots[slot].first + self.slots[slot].pages > first)
    }

    /// Drops every entry intersecting `[first, first + n_pages)`.
    pub fn invalidate_range(&mut self, first: PageId, n_pages: u64) {
        if n_pages == 0 {
            return;
        }
        // One resident entry may start below `first` and reach into the
        // range; the rest start inside it.
        self.invalidate_page(first);
        while let Some((&inside, _)) = self.index.range(first..first + n_pages).next() {
            self.discard(inside);
        }
    }

    /// Drops the entry covering page `p` unless it starts there — what an
    /// [`Cache::install`] at `p` replaces.
    pub fn invalidate_around(&mut self, p: PageId) {
        if let Some((first, _)) = self.covering_slot(p).filter(|&(first, _)| first != p) {
            self.discard(first);
        }
    }

    /// Cleans every dirty entry (leaving the copies resident) and returns
    /// their images in ascending page order — used by `flush`.
    pub fn take_dirty(&mut self) -> Vec<(PageId, PageImage)> {
        let mut out = Vec::new();
        for (&page, &slot) in &self.index {
            let entry = &mut self.slots[slot];
            if let (true, Some(data)) = (entry.dirty, &entry.data) {
                entry.dirty = false;
                out.push((page, PageImage::clone(data)));
            }
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
        self.index.clear();
        self.slots.clear();
        self.vacant.clear();
        self.lists = [List { head: NIL, tail: NIL }; 3];
        self.used_pages = 0;
        self.protected_pages = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use PageClass::{Inner, Leaf};

    /// Every resident entry of `c` as `(first, pages, class)`, in page order.
    pub(crate) fn entries(c: &Cache) -> Vec<(PageId, u64, PageClass)> {
        c.index
            .iter()
            .map(|(&first, &slot)| (first, c.slots[slot].pages, c.class(slot)))
            .collect()
    }

    fn region(byte: u8, pages: u64) -> PageImage {
        vec![byte; (pages * 16) as usize].into()
    }

    /// Installs a page of `class`, returning the victims.
    fn put_as(c: &mut Cache, page: PageId, dirty: bool, class: PageClass) -> Vec<Evicted> {
        let mut victims = Vec::new();
        c.install(page, region(page as u8, 1), dirty, class, &mut victims);
        victims
    }

    /// Installs an inner page — the plain-LRU pool — returning the victims.
    fn put(c: &mut Cache, page: PageId, dirty: bool) -> Vec<Evicted> {
        put_as(c, page, dirty, Inner)
    }

    /// Admits an entry of `class`, returning the victims.
    fn admit_as(c: &mut Cache, first: PageId, pages: u64, class: PageClass) -> Vec<Evicted> {
        let mut victims = Vec::new();
        c.admit(first, pages, region(first as u8, pages), class, &mut victims);
        victims
    }

    /// Admits a leaf entry.
    fn admit(c: &mut Cache, first: PageId, pages: u64, data: PageImage) {
        c.admit(first, pages, data, Leaf, &mut Vec::new());
    }

    fn resident(c: &Cache, first: PageId) -> bool {
        c.index.contains_key(&first)
    }

    // ---------------------------------------------------- inner entries: LRU --

    #[test]
    fn hits_and_misses_are_counted() {
        let mut p = Cache::new(4);
        assert!(p.get(1, 1, Inner, AccessHint::Point).is_none());
        put(&mut p, 1, false);
        assert_eq!(p.get(1, 1, Inner, AccessHint::Point).unwrap(), region(1, 1));
        let s = p.stats(Inner);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        let mut sum = s;
        sum.merge(&s);
        assert_eq!((sum.hits, sum.misses), (2, 2));
        assert_eq!(p.stats(Leaf), CacheStats::default(), "a class counts its own lookups");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = Cache::new(3);
        put(&mut p, 1, false);
        put(&mut p, 2, false);
        put(&mut p, 3, false);
        // touch 1 so 2 becomes the LRU victim
        p.get(1, 1, Inner, AccessHint::Point);
        let ev = put(&mut p, 4, false);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].page, 2);
        assert!(resident(&p, 1) && !resident(&p, 2) && resident(&p, 3) && resident(&p, 4));
        // Re-installing a resident page moves it to the tail too.
        put(&mut p, 1, false);
        assert_eq!(put(&mut p, 5, false)[0].page, 3);
        assert_eq!(p.protected_pages, 0, "inner entries are never protected");
    }

    #[test]
    fn dirty_evictions_are_flagged() {
        let mut p = Cache::new(1);
        put(&mut p, 1, true);
        let ev = put(&mut p, 2, false);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty);
        assert_eq!(p.stats(Inner).dirty_evictions, 1);
    }

    #[test]
    fn weights_count_towards_capacity() {
        let mut p = Cache::new(8);
        admit_as(&mut p, 0, 4, Inner);
        admit_as(&mut p, 10, 4, Inner);
        assert_eq!(p.used_pages(), 8);
        // Inserting a 4-page entry must evict one of the existing 4-page entries.
        let ev = admit_as(&mut p, 20, 4, Inner);
        assert_eq!(ev.len(), 1);
        assert_eq!(p.used_pages(), 8);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let mut p = Cache::new(2);
        let ev = admit_as(&mut p, 1, 3, Inner);
        assert!(ev.is_empty());
        assert!(!resident(&p, 1));
        assert_eq!(p.used_pages(), 0);
    }

    #[test]
    fn replacement_updates_weight_accounting() {
        let mut p = Cache::new(4);
        admit_as(&mut p, 1, 2, Inner);
        put(&mut p, 1, false);
        assert_eq!(p.used_pages(), 1);
        assert_eq!(p.index.len(), 1);
    }

    #[test]
    fn take_dirty_cleans_in_page_order() {
        let mut p = Cache::new(4);
        put(&mut p, 2, true);
        put(&mut p, 1, true);
        put(&mut p, 3, false);
        assert_eq!(p.take_dirty(), vec![(1, region(1, 1)), (2, region(2, 1))]);
        assert!(p.take_dirty().is_empty(), "take_dirty cleans the entries");
        assert!(resident(&p, 1) && resident(&p, 2), "entries stay resident");
        // A fetched image never overwrites a dirty entry; it refreshes a clean one.
        put(&mut p, 1, true);
        admit(&mut p, 1, 1, region(9, 1));
        admit(&mut p, 3, 1, region(9, 1));
        assert_eq!(p.get(1, 1, Inner, AccessHint::Scan).unwrap(), region(1, 1));
        assert_eq!(p.get(3, 1, Inner, AccessHint::Scan).unwrap(), region(9, 1));
    }

    #[test]
    fn remove_and_clear() {
        let mut p = Cache::new(4);
        put(&mut p, 1, true);
        p.invalidate_page(1);
        assert!(!resident(&p, 1));
        assert!(p.take_dirty().is_empty(), "an invalidated dirty entry is discarded");
        assert_eq!(p.stats(Inner).evictions, 0, "invalidation is not an eviction");
        put(&mut p, 2, false);
        p.clear();
        assert!(p.index.is_empty() && p.slots.is_empty());
        assert_eq!(p.used_pages(), 0);
    }

    #[test]
    fn zero_capacity_pool_caches_nothing() {
        let mut p = Cache::new(0);
        let ev = put(&mut p, 1, false);
        assert!(ev.is_empty());
        assert!(p.get(1, 1, Inner, AccessHint::Point).is_none());
        assert_eq!(p.stats(Inner).misses, 1);
    }

    #[test]
    fn hits_on_a_resident_entry_keep_the_others_in_order() {
        let mut p = Cache::new(3);
        put(&mut p, 1, false);
        put(&mut p, 2, false);
        put(&mut p, 3, false);
        for _ in 0..100_000 {
            p.get(2, 1, Inner, AccessHint::Point);
        }
        // 1 is still the LRU victim, then 3, and the much-hit 2 goes last.
        assert_eq!(put(&mut p, 4, false)[0].page, 1);
        assert_eq!(put(&mut p, 5, false)[0].page, 3);
        assert_eq!(put(&mut p, 6, false)[0].page, 2);
    }

    #[test]
    fn a_touched_entry_outlives_an_untouched_one() {
        let mut p = Cache::new(2);
        put(&mut p, 1, false);
        put(&mut p, 2, false);
        for _ in 0..100 {
            p.get(1, 1, Inner, AccessHint::Point);
        }
        let ev = put(&mut p, 3, false);
        // victim must be page 2: page 1 was touched last
        assert_eq!(ev[0].page, 2);
        assert!(resident(&p, 1));
    }

    #[test]
    fn resize_evicts_lru_first_and_hands_back_the_victims() {
        let mut p = Cache::new(4);
        for page in 1..=4 {
            put(&mut p, page, page == 2);
        }
        let mut victims = Vec::new();
        p.resize(1, &mut victims);
        let got: Vec<(PageId, bool)> = victims.iter().map(|v| (v.page, v.dirty)).collect();
        assert_eq!(got, vec![(1, false), (2, true), (3, false)]);
        assert_eq!((p.capacity_pages, p.used_pages()), (1, 1));
    }

    // ------------------------------------------------------- inner entries last --

    /// Eviction takes every leaf entry, protected ones too, before the least
    /// recently used inner entry — however long ago that one was touched.
    #[test]
    fn inner_entries_are_evicted_only_when_no_leaf_entry_is_left() {
        let mut c = Cache::new(6);
        put(&mut c, 0, false);
        put(&mut c, 1, false);
        admit(&mut c, 10, 2, region(1, 2));
        c.get(10, 2, Leaf, AccessHint::Point); // protected
        admit(&mut c, 20, 2, region(2, 2));
        let order = |ev: Vec<Evicted>| ev.iter().map(|v| v.page).collect::<Vec<_>>();
        assert_eq!(
            order(put_as(&mut c, 30, false, Leaf)),
            vec![20],
            "the probation leaf goes first"
        );
        assert_eq!(
            order(admit_as(&mut c, 2, 2, Inner)),
            vec![30],
            "then the next probation leaf"
        );
        assert_eq!(order(admit_as(&mut c, 4, 1, Inner)), vec![10], "then the protected one");
        assert_eq!(
            order(admit_as(&mut c, 6, 2, Inner)),
            vec![0],
            "only then the least recently used inner entry"
        );
        assert_eq!((c.stats(Leaf).evictions, c.stats(Inner).evictions), (3, 1));
        // A leaf entry admitted into a cache full of inner entries leaves
        // first: it is its own victim.
        assert_eq!(order(admit_as(&mut c, 40, 1, Leaf)), vec![40]);
    }

    /// A page write drops the entry covering its page from elsewhere and
    /// keeps the one keyed at the page, for the install to replace.
    #[test]
    fn a_write_drops_only_the_overlaps_that_start_elsewhere() {
        let mut c = Cache::new(16);
        admit(&mut c, 0, 6, region(1, 6));
        c.invalidate_around(4);
        assert!(!resident(&c, 0), "a region around the page");
        admit(&mut c, 4, 2, region(2, 2));
        c.invalidate_around(4);
        assert!(resident(&c, 4), "the entry keyed at the page");
        put_as(&mut c, 4, false, Leaf);
        assert_eq!(c.get(4, 1, Leaf, AccessHint::Scan).unwrap(), region(4, 1));
        assert_eq!(c.covering(4), Some((4, region(4, 1))));
        assert_eq!(c.covering(5), None);
    }

    // ------------------------------------------------- leaf entries: SLRU --

    #[test]
    fn point_miss_admits_and_rereference_promotes() {
        let mut c = Cache::new(10);
        assert!(c.get(4, 2, Leaf, AccessHint::Point).is_none());
        admit(&mut c, 4, 2, region(1, 2));
        assert_eq!(c.get(4, 2, Leaf, AccessHint::Point).unwrap(), region(1, 2));
        let s = c.stats(Leaf);
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(c.used_pages(), 2);
        assert_eq!(c.protected_pages, 2);
        // A second admission of a resident region (two in-flight reads missed
        // it together) refreshes the bytes and leaves its segment alone.
        admit(&mut c, 4, 2, region(7, 2));
        assert_eq!(c.protected_pages, 2);
        assert_eq!(c.get(4, 2, Leaf, AccessHint::Scan).unwrap(), region(7, 2));
    }

    #[test]
    fn scan_miss_is_a_bypass_and_scan_hits_do_not_promote() {
        let mut c = Cache::new(10);
        assert!(c.get(4, 2, Leaf, AccessHint::Scan).is_none());
        assert_eq!(c.stats(Leaf).scan_bypasses, 1);
        assert_eq!(c.stats(Leaf).misses, 0);
        // A resident entry still serves scan hits.
        admit(&mut c, 4, 2, region(1, 2));
        assert_eq!(c.get(4, 2, Leaf, AccessHint::Scan).unwrap(), region(1, 2));
        assert_eq!(c.stats(Leaf).hits, 1);
        assert_eq!(c.protected_pages, 0);
    }

    #[test]
    fn eviction_drains_probation_before_protected() {
        let mut c = Cache::new(6);
        // Protect region 0 with a re-reference.
        admit(&mut c, 0, 2, region(0, 2));
        c.get(0, 2, Leaf, AccessHint::Point);
        // Fill with one-touch probation entries; region 0 must survive.
        for i in 0..8u64 {
            let first = 10 + i * 2;
            c.get(first, 2, Leaf, AccessHint::Point);
            admit(&mut c, first, 2, region(i as u8, 2));
        }
        assert!(
            c.get(0, 2, Leaf, AccessHint::Scan).is_some(),
            "protected entry evicted by probation churn"
        );
        assert!(c.stats(Leaf).evictions > 0);
        assert!(c.used_pages() <= 6);
    }

    #[test]
    fn scan_stream_cannot_evict_the_point_working_set() {
        let mut c = Cache::new(8);
        // Hot set: 3 regions, touched twice (→ protected).
        for first in [0u64, 2, 4] {
            c.get(first, 2, Leaf, AccessHint::Point);
            admit(&mut c, first, 2, region(first as u8, 2));
            c.get(first, 2, Leaf, AccessHint::Point);
        }
        // A 100-region scan streams past: the device fetch happens on each
        // miss, and a scan read does NOT admit.
        for i in 0..100u64 {
            assert!(c.get(100 + i * 2, 2, Leaf, AccessHint::Scan).is_none());
        }
        for first in [0u64, 2, 4] {
            assert!(
                c.get(first, 2, Leaf, AccessHint::Scan).is_some(),
                "scan evicted hot region {first}"
            );
        }
        assert_eq!(c.stats(Leaf).scan_bypasses, 100);
        assert_eq!(c.stats(Leaf).evictions, 0);
    }

    #[test]
    fn protected_cap_demotes_instead_of_growing() {
        let mut c = Cache::new(10); // protected cap = 8
        for first in [0u64, 2, 4, 6, 8] {
            c.get(first, 2, Leaf, AccessHint::Point);
            admit(&mut c, first, 2, region(first as u8, 2));
            c.get(first, 2, Leaf, AccessHint::Point); // promote
        }
        // All five were promoted (10 pages), but protected holds ≤ 8 pages:
        // at least one was demoted back to probation, none were lost.
        assert_eq!(c.used_pages(), 10);
        assert_eq!(c.protected_pages, 8);
        for first in [0u64, 2, 4, 6, 8] {
            assert!(c.get(first, 2, Leaf, AccessHint::Scan).is_some());
        }
    }

    #[test]
    fn hits_on_a_resident_region_keep_probation_in_order() {
        let mut c = Cache::new(6);
        for first in [0u64, 2, 4] {
            admit(&mut c, first, 2, region(first as u8, 2));
        }
        // Region 2 is promoted by its first hit and refreshed by the rest.
        for _ in 0..100_000 {
            c.get(2, 2, Leaf, AccessHint::Point);
        }
        // Probation still drains oldest-first (0, then 4) before the
        // protected region 2 is touched.
        for (first, survivors) in [(10u64, [2u64, 4]), (12, [2, 10])] {
            admit(&mut c, first, 2, region(9, 2));
            for s in survivors {
                assert!(
                    c.get(s, 2, Leaf, AccessHint::Scan).is_some(),
                    "region {s} evicted out of order"
                );
            }
        }
        assert_eq!(c.stats(Leaf).evictions, 2);
    }

    /// A removed entry's slot is the next admission's: hits add none, and
    /// churn at a fixed budget needs no more slots than the most entries
    /// resident at once — the budget's, plus the one an admission links
    /// before it evicts.
    #[test]
    fn slots_are_reused_not_grown() {
        for class in [Inner, Leaf] {
            let mut c = Cache::new(8);
            let admit = |c: &mut Cache, first| c.admit(first, 1, region(1, 1), class, &mut Vec::new());
            for first in 0..8 {
                admit(&mut c, first);
            }
            for i in 0..100_000u64 {
                c.get(i % 8, 1, class, AccessHint::Point);
            }
            assert_eq!(c.slots.len(), 8, "hits allocated slots");
            for first in 8..100_008 {
                admit(&mut c, first);
                c.get(first - 4, 1, class, AccessHint::Point);
            }
            assert_eq!(c.index.len(), 8);
            assert_eq!(c.slots.len(), 9, "churn grew the slots");
            assert_eq!(c.vacant.len(), 1);
            assert_eq!(c.stats(class).evictions, 100_000);
        }
    }

    #[test]
    fn invalidation_by_interior_page_and_by_range() {
        let mut c = Cache::new(16);
        admit(&mut c, 4, 4, region(1, 4));
        admit(&mut c, 8, 2, region(2, 2));
        // Page 6 lies inside the region starting at 4.
        c.invalidate_page(6);
        assert!(c.get(4, 4, Leaf, AccessHint::Scan).is_none());
        assert!(c.get(8, 2, Leaf, AccessHint::Scan).is_some());
        // A range write overlapping [7, 9) kills the region at 8.
        c.invalidate_range(7, 2);
        assert!(c.get(8, 2, Leaf, AccessHint::Scan).is_none());
        assert_eq!(c.used_pages(), 0);
    }

    /// Images the cache lets go of in place — replaced, swapped, invalidated —
    /// go to this thread's spares, except one a reader still holds.
    #[test]
    fn replaced_swapped_and_invalidated_images_become_spares() {
        let mut c = Cache::new(16);
        let spares = pio::spare_images;
        let base = spares();
        put(&mut c, 1, false);
        let held = c.get(1, 1, Inner, AccessHint::Point).unwrap();
        put(&mut c, 1, false);
        assert_eq!(spares(), base, "a held image is not kept");
        put(&mut c, 1, false);
        assert_eq!(spares(), base + 1, "install replaced an unheld image");
        admit(&mut c, 1, 1, region(9, 1));
        assert_eq!(spares(), base + 2, "admission swapped one in");
        admit(&mut c, 4, 4, region(4, 4));
        c.invalidate_page(6);
        assert_eq!(spares(), base + 3, "invalidate_page");
        admit(&mut c, 8, 1, region(8, 1));
        admit(&mut c, 9, 1, region(9, 1));
        c.invalidate_range(7, 3);
        assert_eq!(spares(), base + 5, "invalidate_range");
        assert!(held.iter().all(|&b| b == 1));
    }

    #[test]
    fn oversized_region_is_not_admitted_and_clear_empties() {
        let mut c = Cache::new(4);
        admit(&mut c, 0, 8, region(1, 8));
        assert_eq!(c.used_pages(), 0);
        admit(&mut c, 0, 2, region(1, 2));
        assert_eq!(c.used_pages(), 2);
        c.clear();
        assert_eq!(c.used_pages(), 0);
        assert!(c.get(0, 2, Leaf, AccessHint::Scan).is_none());
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
    /// list is a `Vec` kept in recency order (front = next victim), every
    /// operation is a linear scan. No stamps, no stale pairs, no compaction.
    /// A hit needs the same `(first, pages)`; a write replaces every entry it
    /// overlaps (the test first drops those that start elsewhere, as
    /// [`Cache::install`]'s callers must), and so does an admission, unless
    /// one of them is dirty. `lists` are probation, protected and inner.
    #[derive(Debug, Default)]
    struct Model {
        capacity: u64,
        lists: [Vec<Slot>; 3],
        stats: [CacheStats; 2],
    }

    fn weight(slots: &[Slot]) -> u64 {
        slots.iter().map(|s| s.pages).sum()
    }

    impl Model {
        /// Removes the entry starting at `first`, with the list it was on.
        fn take(&mut self, first: PageId) -> Option<(usize, Slot)> {
            for (l, list) in self.lists.iter_mut().enumerate() {
                if let Some(i) = list.iter().position(|s| s.first == first) {
                    return Some((l, list.remove(i)));
                }
            }
            None
        }

        fn get(&mut self, first: PageId, pages: u64, class: PageClass, hint: AccessHint) -> Option<PageImage> {
            let hint = if class == Inner { AccessHint::Point } else { hint };
            let same = |s: &&Slot| s.first == first && s.pages == pages;
            let stats = &mut self.stats[class as usize];
            let Some(slot) = self.lists.iter().flatten().find(same) else {
                match hint {
                    AccessHint::Point => stats.misses += 1,
                    AccessHint::Scan => stats.scan_bypasses += 1,
                }
                return None;
            };
            let data = slot.data.clone();
            let inner = self.lists[2].contains(slot);
            self.stats[if inner { Inner } else { Leaf } as usize].hits += 1;
            if hint == AccessHint::Point {
                let (l, slot) = self.take(first).unwrap();
                // Inner entries stay inner; leaf entries go to protected.
                self.lists[if l == 2 { 2 } else { 1 }].push(slot);
                self.settle(&mut Vec::new());
            }
            Some(data)
        }

        /// Demotes, then evicts, until both budgets hold.
        fn settle(&mut self, victims: &mut Vec<(PageId, bool)>) {
            while weight(&self.lists[1]) > self.capacity * 4 / 5 {
                let slot = self.lists[1].remove(0);
                self.lists[0].push(slot);
            }
            while self.lists.iter().map(|l| weight(l)).sum::<u64>() > self.capacity {
                let l = (0..3).find(|&l| !self.lists[l].is_empty()).unwrap();
                let slot = self.lists[l].remove(0);
                let class = if l == 2 { Inner } else { Leaf };
                let stats = &mut self.stats[class as usize];
                stats.evictions += 1;
                stats.dirty_evictions += slot.dirty as u64;
                victims.push((slot.first, slot.dirty));
            }
        }

        fn put(&mut self, slot: Slot, class: PageClass, replace: bool, victims: &mut Vec<(PageId, bool)>) {
            let overlaps = |s: &&mut Slot| s.first < slot.first + slot.pages && slot.first < s.first + s.pages;
            if !replace {
                let mut resident = self.lists.iter_mut().flatten();
                if let Some(old) = resident.find(|s| s.first == slot.first && s.pages == slot.pages) {
                    if !old.dirty {
                        old.data = slot.data;
                    }
                    return;
                }
                let mut resident = self.lists.iter_mut().flatten();
                if slot.pages > self.capacity || resident.any(|s| overlaps(&s) && s.dirty) {
                    return;
                }
            }
            self.invalidate(slot.first, slot.pages);
            if slot.pages <= self.capacity {
                self.lists[if class == Inner { 2 } else { 0 }].push(slot);
                self.settle(victims);
            }
        }

        fn invalidate(&mut self, first: PageId, n: u64) {
            for list in &mut self.lists {
                list.retain(|s| n == 0 || s.first + s.pages <= first || first + n <= s.first);
            }
        }

        fn take_dirty(&mut self) -> Vec<(PageId, PageImage)> {
            let mut out = Vec::new();
            for slot in self.lists.iter_mut().flatten().filter(|s| s.dirty) {
                slot.dirty = false;
                out.push((slot.first, slot.data.clone()));
            }
            out.sort();
            out
        }
    }

    /// One list, walked forwards from its head, as model slots. Every step
    /// checks the back link to the step before, the entry's segment and its
    /// index entry; the walk must end at the list's tail.
    fn live(c: &Cache, seg: Segment, ctx: &str) -> Vec<Slot> {
        let list = c.lists[seg as usize];
        let (mut out, mut prev, mut slot) = (Vec::new(), NIL, list.head);
        while slot != NIL {
            let e = &c.slots[slot];
            assert_eq!(e.prev, prev, "{ctx}: back link of slot {slot}");
            assert_eq!(e.seg, seg, "{ctx}: segment of slot {slot}");
            assert_eq!(c.index.get(&e.first), Some(&slot), "{ctx}: index of slot {slot}");
            out.push(Slot {
                first: e.first,
                pages: e.pages,
                data: e.data.clone().expect("a linked slot holds an image"),
                dirty: e.dirty,
            });
            (prev, slot) = (slot, e.next);
        }
        assert_eq!(list.tail, prev, "{ctx}: tail of {seg:?}");
        out
    }

    /// Drives [`Cache`] and [`Model`] through the same seeded stream of every
    /// public operation, with mixed weights, hints and classes — inner
    /// entries only (the pool without a leaf budget), then both classes —
    /// and demands identical answers, counters, victim sequences and recency
    /// orders after every step, plus the structural invariants the model
    /// cannot see. `CRASH_SEED` replays a failure.
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
        for mixed in [false, true] {
            let capacity = rand(100);
            let mut cache = Cache::new(capacity);
            let mut model = Model {
                capacity,
                ..Model::default()
            };
            for step in 0..30_000u32 {
                let ctx = format!("CRASH_SEED={seed} mixed={mixed} step={step}");
                // 24 slots of 1–4 pages, eight pages apart — and, one step
                // in four, an entry of another length inside a slot's eight
                // pages, which overlaps the slot's own entry or starts where
                // it starts (a leaf segment beside its whole region).
                let slot = rand(24);
                let (first, pages) = if rand(4) == 0 {
                    (slot * 8 + rand(4), 1 + rand(4))
                } else {
                    (slot * 8, 1 + slot % 4)
                };
                let class = if mixed && rand(3) != 0 { Leaf } else { Inner };
                let data = PageImage::from(vec![step as u8; 4]);
                let mut victims = Vec::new();
                let mut expected = Vec::new();
                // Resizes are rare, so between them the cache runs long phases
                // either under eviction pressure or — the 24 keys weigh 60
                // pages together — with everything resident, where only the
                // relinks of hits reorder the lists.
                match rand(2000) {
                    0..=799 => {
                        let hint = if rand(4) == 0 {
                            AccessHint::Scan
                        } else {
                            AccessHint::Point
                        };
                        assert_eq!(
                            cache.get(first, pages, class, hint),
                            model.get(first, pages, class, hint),
                            "{ctx}: get"
                        );
                    }
                    800..=1199 => {
                        // A page write replaces at most the entry keyed by
                        // its page: its caller drops one around it first.
                        cache.invalidate_around(first);
                        let dirty = rand(3) == 0;
                        cache.install(first, data.clone(), dirty, class, &mut victims);
                        let slot = Slot {
                            first,
                            pages: 1,
                            data,
                            dirty,
                        };
                        model.put(slot, class, true, &mut expected);
                    }
                    1200..=1699 => {
                        cache.admit(first, pages, data.clone(), class, &mut victims);
                        let slot = Slot {
                            first,
                            pages,
                            data,
                            dirty: false,
                        };
                        model.put(slot, class, false, &mut expected);
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
                        model.lists.iter_mut().for_each(Vec::clear);
                    }
                }
                let victims: Vec<(PageId, bool)> = victims.iter().map(|v| (v.page, v.dirty)).collect();
                assert_eq!(victims, expected, "{ctx}: victim sequence");
                assert_eq!(cache.stats, model.stats, "{ctx}: counters");
                for (seg, list) in [Segment::Probation, Segment::Protected, Segment::Inner]
                    .into_iter()
                    .zip(&model.lists)
                {
                    assert_eq!(&live(&cache, seg, &ctx), list, "{ctx}: {seg:?} order");
                }
                assert_eq!(
                    cache.index.len(),
                    model.lists.iter().map(Vec::len).sum::<usize>(),
                    "{ctx}: an entry is on no list"
                );
                assert_eq!(
                    cache.used_pages,
                    model.lists.iter().map(|l| weight(l)).sum::<u64>(),
                    "{ctx}"
                );
                assert_eq!(cache.protected_pages, weight(&model.lists[1]), "{ctx}");
                assert!(cache.used_pages <= cache.capacity_pages, "{ctx}: over budget");
                assert!(
                    cache.protected_pages <= cache.protected_cap(),
                    "{ctx}: protected over its cap"
                );
                assert_eq!(
                    cache.slots.len(),
                    cache.index.len() + cache.vacant.len(),
                    "{ctx}: a slot is neither indexed nor vacant"
                );
                let mut end = 0;
                for (&first, &slot) in &cache.index {
                    assert!(first >= end, "{ctx}: the entry at {first} overlaps the one before");
                    end = first + cache.slots[slot].pages;
                }
            }
        }
    }
}
