//! The one cache: a segmented LRU of pages, each entry one page image keyed
//! by its [`PageId`] and tagged with its [`PageClass`].
//!
//! Every entry is exactly one page, and a region — a leaf's `L` pages — is a
//! run of page entries: a read of a whole leaf takes the pages that segment
//! reads left resident, and a segment read takes the page a whole-leaf read
//! admitted. The budget is a count of pages. The cache performs no I/O:
//! eviction hands every victim back to the caller, which decides whether a
//! write-back is needed. Images are shared and immutable ([`PageImage`]): a hit
//! hands out another reference to the resident image, and a write or a refresh
//! *replaces* the entry's image, so the bytes a reader holds never change
//! under it.
//!
//! The replacement policy is a **segmented LRU** (probation + protected) for
//! leaf pages, with inner pages kept last and an explicit **scan bypass**:
//!
//! * [`PageClass::Inner`] entries live on one plain-LRU list, and eviction
//!   takes one only when no leaf entry is left: every descent walks them.
//! * [`PageClass::Leaf`] entries found by a `Point` lookup ([`Cache::get`])
//!   behave like a classic SLRU: a first touch lands the page in the
//!   *probation* segment, a re-reference promotes it to the *protected*
//!   segment (capped at 4/5 of the budget, so probation always retains churn
//!   room), and eviction drains probation before it touches protected.
//! * A `Scan` lookup ([`Cache::scan`]) takes a run of pages only when every
//!   one of them is resident (a stream still benefits from the hot set), and
//!   never promotes or refreshes recency. A run with a page missing is read
//!   past the cache and admitted nowhere, and each of its pages counts in
//!   [`CacheStats::scan_bypasses`]: a full-range scan flows past the cache
//!   without evicting a single resident entry.
//!
//! A cache that holds only inner entries is therefore a plain LRU — the
//! paper's buffer pool of `M − O` pages.
//!
//! The index is a hash map from a page to its slot. The entries live in a
//! vector of slots, and each list is doubly linked through them, least
//! recently used at the head. A removed entry's slot goes on a free list that
//! the next admission takes first, so the slots never outnumber the most
//! entries ever resident at once, and churn at a full budget allocates
//! nothing. A hit is one index probe, a reference-count bump and an O(1)
//! relink. An admission or a write makes one probe, and so does an eviction,
//! which takes its victim from a list head; a demotion makes none.

use crate::page::{PageId, PageImage};
use std::collections::hash_map::{self, HashMap};

/// What a cached page holds, which decides when eviction may take it; the
/// index of its counters in [`Cache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// An internal node (or any page of an index that tags no leaves):
    /// evicted only when no leaf entry is left.
    Inner,
    /// A page of a leaf: segmented LRU.
    Leaf,
}

/// Monotonic counters of one class of a [`Cache`], per page: a lookup of a
/// two-page region counts two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Pages served from the cache (either hint).
    pub hits: u64,
    /// Pages a `Point` lookup missed (the caller fetches and admits them).
    pub misses: u64,
    /// Pages a `Scan` lookup read past the cache, admitting none.
    pub scan_bypasses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Evicted pages that were dirty (and therefore required a write-back).
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

/// A page evicted from a [`Cache`].
#[derive(Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted page.
    pub page: PageId,
    /// Its image.
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

/// One slot of [`Cache::slots`]: a resident page, linked into its segment's
/// list, or a vacant slot (no image) waiting on the free list.
#[derive(Debug)]
struct Entry {
    page: PageId,
    data: Option<PageImage>,
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

/// Segmented-LRU cache of pages, bounded by a budget in pages. Not internally
/// synchronised — [`crate::CachedStore`] keeps it behind a mutex.
#[derive(Debug)]
pub struct Cache {
    capacity_pages: u64,
    /// Each resident page → its slot.
    index: HashMap<PageId, usize>,
    slots: Vec<Entry>,
    /// Slots of removed entries, reused before `slots` grows.
    vacant: Vec<usize>,
    /// The probation, protected and inner lists, indexed by [`Segment`].
    lists: [List; 3],
    protected_pages: u64,
    /// Counters by [`PageClass`]: hits and evictions by the entry's class,
    /// misses and bypasses by the class asked for.
    stats: [CacheStats; 2],
}

impl Cache {
    /// Creates a cache holding at most `capacity_pages` pages. A capacity of
    /// zero is allowed and simply caches nothing.
    pub fn new(capacity_pages: u64) -> Self {
        Self {
            capacity_pages,
            index: HashMap::new(),
            slots: Vec::new(),
            vacant: Vec::new(),
            lists: [List { head: NIL, tail: NIL }; 3],
            protected_pages: 0,
            stats: [CacheStats::default(); 2],
        }
    }

    /// Pages currently resident.
    pub fn used_pages(&self) -> u64 {
        self.index.len() as u64
    }

    /// Counter snapshot of one class.
    pub fn stats(&self, class: PageClass) -> CacheStats {
        self.stats[class as usize]
    }

    fn protected_cap(&self) -> u64 {
        self.capacity_pages * PROTECTED_FIFTHS / 5
    }

    /// A `Point` lookup of `page` by a reader of `class`, returning its
    /// (shared) image: a hit promotes a leaf page or refreshes an inner one,
    /// and a miss counts in `class`'s counters — the caller fetches the page
    /// and [`Cache::admit`]s it.
    pub fn get(&mut self, page: PageId, class: PageClass) -> Option<PageImage> {
        let hit = self.get_resident(page);
        if hit.is_none() {
            self.stats[class as usize].misses += 1;
        }
        hit
    }

    /// [`Cache::get`] for a caller whose fallback is not a fetch of this
    /// page: a hit is counted and touched alike, an absent page counts
    /// nothing.
    pub(crate) fn get_resident(&mut self, page: PageId) -> Option<PageImage> {
        let slot = *self.index.get(&page)?;
        self.stats[self.class(slot) as usize].hits += 1;
        self.touch(slot);
        self.slots[slot].data.clone()
    }

    /// A `Scan` lookup of the `n` pages from `first` by a reader of `class`:
    /// their images in page order if every one is resident (each a hit,
    /// none touched). Otherwise `None`, and each of the `n` pages counts as a
    /// bypass: the caller reads the run past the cache and admits none of it.
    pub fn scan(&mut self, first: PageId, n: u64, class: PageClass) -> Option<impl Iterator<Item = PageImage> + '_> {
        let pages = first..first.saturating_add(n);
        if !pages.clone().all(|page| self.index.contains_key(&page)) {
            self.stats[class as usize].scan_bypasses += n;
            return None;
        }
        for page in pages.clone() {
            let class = self.class(self.index[&page]);
            self.stats[class as usize].hits += 1;
        }
        let cache = &*self;
        Some(pages.map(move |page| cache.peek(page).expect("checked resident above")))
    }

    /// The image of `page` for a lookup no reader made (scrub's heal): counts
    /// nothing and leaves recency alone.
    pub(crate) fn peek(&self, page: PageId) -> Option<PageImage> {
        let slot = *self.index.get(&page)?;
        Some(self.slots[slot].data.clone().expect("a resident entry holds an image"))
    }

    /// The class of the entry in `slot`.
    fn class(&self, slot: usize) -> PageClass {
        match self.slots[slot].seg {
            Segment::Inner => PageClass::Inner,
            Segment::Probation | Segment::Protected => PageClass::Leaf,
        }
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
            self.protected_pages += 1;
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
            self.protected_pages -= 1;
        }
    }

    /// A page write: replaces (or inserts) the entry of `page` — image, dirty
    /// flag and class — and moves it to the tail of its class's first list;
    /// the replaced entry's image goes to this thread's spares if no reader
    /// holds it. Victims evicted to make room are appended to `victims`.
    pub fn install(
        &mut self,
        page: PageId,
        data: PageImage,
        dirty: bool,
        class: PageClass,
        victims: &mut Vec<Evicted>,
    ) {
        // A zero budget holds no entry to replace.
        if self.capacity_pages == 0 {
            return;
        }
        let free = self.free_slot();
        match self.index.entry(page) {
            // The replaced entry's slot is vacated, and its successor takes it.
            hash_map::Entry::Occupied(resident) => {
                let slot = *resident.get();
                pio::recycle_image(self.release(slot).0);
            }
            hash_map::Entry::Vacant(at) => {
                at.insert(free);
            }
        }
        self.occupy(page, data, dirty, class, victims);
    }

    /// A completed miss of `page`. If the page is resident, only swaps the
    /// image in, leaving class, segment and recency alone (two in-flight
    /// reads both missed it and both arrive here), and hands the swapped-out
    /// image to this thread's spares — unless the entry is dirty, which is
    /// newer than anything fetched and keeps its image. Otherwise inserts the
    /// fetched image as a `class` entry. Victims are appended to `victims`.
    pub fn admit(&mut self, page: PageId, data: PageImage, class: PageClass, victims: &mut Vec<Evicted>) {
        if let Some(&slot) = self.index.get(&page) {
            let entry = &mut self.slots[slot];
            if !entry.dirty {
                pio::recycle_image(entry.data.replace(data).expect("a resident entry holds an image"));
            }
            return;
        }
        if self.capacity_pages == 0 {
            return;
        }
        self.index.insert(page, self.free_slot());
        self.occupy(page, data, false, class, victims);
    }

    /// The slot the next admission takes: the last one vacated, else a new one.
    fn free_slot(&self) -> usize {
        self.vacant.last().copied().unwrap_or(self.slots.len())
    }

    /// Fills [`Cache::free_slot`], which the index already maps `page` to,
    /// links it at the tail of its class's first list and evicts to fit.
    fn occupy(&mut self, page: PageId, data: PageImage, dirty: bool, class: PageClass, victims: &mut Vec<Evicted>) {
        let slot = self.free_slot();
        let seg = if class == PageClass::Inner {
            Segment::Inner
        } else {
            Segment::Probation
        };
        let entry = Entry {
            page,
            data: Some(data),
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
        self.push_back(seg, slot);
        self.evict_to_fit(victims);
    }

    /// Evicts least recently used entries — probation's, then protected's,
    /// then the inner list's — until the budget holds.
    fn evict_to_fit(&mut self, victims: &mut Vec<Evicted>) {
        while self.used_pages() > self.capacity_pages {
            let slot = self.lists.iter().map(|list| list.head).find(|&head| head != NIL);
            let slot = slot.expect("a cache over its budget holds an entry");
            let (page, class) = (self.slots[slot].page, self.class(slot));
            self.index.remove(&page);
            let (data, dirty) = self.release(slot);
            let stats = &mut self.stats[class as usize];
            stats.evictions += 1;
            stats.dirty_evictions += dirty as u64;
            victims.push(Evicted { page, data, dirty });
        }
    }

    /// Frees the slot of an entry already dropped from the index, or about
    /// to be replaced in it, without counting an eviction; returns its image
    /// and dirty flag.
    fn release(&mut self, slot: usize) -> (PageImage, bool) {
        self.unlink(slot);
        self.vacant.push(slot);
        let entry = &mut self.slots[slot];
        if entry.seg == Segment::Protected {
            self.protected_pages -= 1;
        }
        (entry.data.take().expect("a resident entry holds an image"), entry.dirty)
    }

    /// Drops the entry of page `p`, dirty or not — the page was freed or
    /// rewritten behind the entry's back — without counting an eviction, and
    /// hands its image to this thread's spares ([`pio::recycle_image`] keeps
    /// it only if no reader holds it).
    pub fn invalidate_page(&mut self, p: PageId) {
        if let Some(slot) = self.index.remove(&p) {
            pio::recycle_image(self.release(slot).0);
        }
    }

    /// Cleans every dirty entry (leaving the copies resident) and returns
    /// their images in ascending page order — used by `flush`.
    pub fn take_dirty(&mut self) -> Vec<(PageId, PageImage)> {
        let mut out = Vec::new();
        for &slot in self.index.values() {
            let entry = &mut self.slots[slot];
            if let (true, Some(data)) = (entry.dirty, &entry.data) {
                entry.dirty = false;
                out.push((entry.page, PageImage::clone(data)));
            }
        }
        out.sort_unstable_by_key(|&(page, _)| page);
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
        self.protected_pages = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use PageClass::{Inner, Leaf};

    /// Every resident page of `c` with its class, in page order.
    pub(crate) fn entries(c: &Cache) -> Vec<(PageId, PageClass)> {
        let mut entries: Vec<_> = c.index.iter().map(|(&page, &slot)| (page, c.class(slot))).collect();
        entries.sort_unstable_by_key(|&(page, _)| page);
        entries
    }

    fn image(byte: u8) -> PageImage {
        vec![byte; 16].into()
    }

    /// Installs a page of `class`, returning the victims.
    fn put_as(c: &mut Cache, page: PageId, dirty: bool, class: PageClass) -> Vec<Evicted> {
        let mut victims = Vec::new();
        c.install(page, image(page as u8), dirty, class, &mut victims);
        victims
    }

    /// Installs an inner page — the plain-LRU pool — returning the victims.
    fn put(c: &mut Cache, page: PageId, dirty: bool) -> Vec<Evicted> {
        put_as(c, page, dirty, Inner)
    }

    /// Admits a page of `class`, returning the victims.
    fn admit_as(c: &mut Cache, page: PageId, class: PageClass) -> Vec<Evicted> {
        let mut victims = Vec::new();
        c.admit(page, image(page as u8), class, &mut victims);
        victims
    }

    /// Admits the leaf pages `first..first + n`, as a whole-leaf miss does.
    fn admit_run(c: &mut Cache, first: PageId, n: u64) {
        for page in first..first + n {
            admit_as(c, page, Leaf);
        }
    }

    /// A `Point` lookup of each leaf page `first..first + n`: whether all hit.
    fn get_run(c: &mut Cache, first: PageId, n: u64) -> bool {
        (first..first + n).filter(|&page| c.get(page, Leaf).is_none()).count() == 0
    }

    fn resident(c: &Cache, page: PageId) -> bool {
        c.index.contains_key(&page)
    }

    fn order(victims: Vec<Evicted>) -> Vec<PageId> {
        victims.iter().map(|v| v.page).collect()
    }

    // ---------------------------------------------------- inner entries: LRU --

    #[test]
    fn hits_and_misses_are_counted() {
        let mut p = Cache::new(4);
        assert!(p.get(1, Inner).is_none());
        put(&mut p, 1, false);
        assert_eq!(p.get(1, Inner).unwrap(), image(1));
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
        p.get(1, Inner);
        let ev = put(&mut p, 4, false);
        assert_eq!(order(ev), vec![2]);
        assert!(resident(&p, 1) && !resident(&p, 2) && resident(&p, 3) && resident(&p, 4));
        // Re-installing a resident page moves it to the tail too.
        put(&mut p, 1, false);
        assert_eq!(order(put(&mut p, 5, false)), vec![3]);
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

    /// Every page counts one towards the budget, whatever run it came in:
    /// a four-page leaf admitted into a full cache evicts four pages.
    #[test]
    fn weights_count_towards_capacity() {
        let mut p = Cache::new(8);
        admit_run(&mut p, 0, 4);
        admit_run(&mut p, 10, 4);
        assert_eq!(p.used_pages(), 8);
        let mut victims = Vec::new();
        for page in 20..24 {
            victims.extend(admit_as(&mut p, page, Leaf));
        }
        assert_eq!(order(victims), vec![0, 1, 2, 3]);
        assert_eq!(p.used_pages(), 8);
    }

    /// A write over a resident page replaces its entry: one entry, one page.
    #[test]
    fn replacement_updates_weight_accounting() {
        let mut p = Cache::new(4);
        admit_as(&mut p, 1, Leaf);
        put(&mut p, 1, false);
        assert_eq!(p.used_pages(), 1);
        assert_eq!(p.index.len(), 1);
        assert_eq!(
            entries(&p),
            vec![(1, Inner)],
            "the write's class replaced the admission's"
        );
    }

    #[test]
    fn take_dirty_cleans_in_page_order() {
        let mut p = Cache::new(4);
        put(&mut p, 2, true);
        put(&mut p, 1, true);
        put(&mut p, 3, false);
        assert_eq!(p.take_dirty(), vec![(1, image(1)), (2, image(2))]);
        assert!(p.take_dirty().is_empty(), "take_dirty cleans the entries");
        assert!(resident(&p, 1) && resident(&p, 2), "entries stay resident");
        // A fetched image never overwrites a dirty entry; it refreshes a clean one.
        put(&mut p, 1, true);
        p.admit(1, image(9), Leaf, &mut Vec::new());
        p.admit(3, image(9), Leaf, &mut Vec::new());
        assert_eq!(p.peek(1).unwrap(), image(1));
        assert_eq!(p.peek(3).unwrap(), image(9));
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
        assert!(admit_as(&mut p, 2, Leaf).is_empty());
        assert!(p.get(1, Inner).is_none());
        assert_eq!(p.stats(Inner).misses, 1);
        assert_eq!(p.used_pages(), 0);
    }

    #[test]
    fn hits_on_a_resident_entry_keep_the_others_in_order() {
        let mut p = Cache::new(3);
        put(&mut p, 1, false);
        put(&mut p, 2, false);
        put(&mut p, 3, false);
        for _ in 0..100_000 {
            p.get(2, Inner);
        }
        // 1 is still the LRU victim, then 3, and the much-hit 2 goes last.
        assert_eq!(order(put(&mut p, 4, false)), vec![1]);
        assert_eq!(order(put(&mut p, 5, false)), vec![3]);
        assert_eq!(order(put(&mut p, 6, false)), vec![2]);
    }

    #[test]
    fn a_touched_entry_outlives_an_untouched_one() {
        let mut p = Cache::new(2);
        put(&mut p, 1, false);
        put(&mut p, 2, false);
        for _ in 0..100 {
            p.get(1, Inner);
        }
        let ev = put(&mut p, 3, false);
        // victim must be page 2: page 1 was touched last
        assert_eq!(order(ev), vec![2]);
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

    /// Eviction takes every leaf page, protected ones too, before the least
    /// recently used inner page — however long ago that one was touched.
    #[test]
    fn inner_entries_are_evicted_only_when_no_leaf_entry_is_left() {
        let mut c = Cache::new(4);
        put(&mut c, 0, false);
        put(&mut c, 1, false);
        admit_as(&mut c, 10, Leaf);
        c.get(10, Leaf); // protected
        admit_as(&mut c, 20, Leaf);
        assert_eq!(
            order(put_as(&mut c, 30, false, Leaf)),
            vec![20],
            "the probation leaf goes first"
        );
        assert_eq!(
            order(admit_as(&mut c, 2, Inner)),
            vec![30],
            "then the next probation leaf"
        );
        assert_eq!(order(admit_as(&mut c, 3, Inner)), vec![10], "then the protected one");
        assert_eq!(
            order(admit_as(&mut c, 4, Inner)),
            vec![0],
            "only then the least recently used inner page"
        );
        assert_eq!((c.stats(Leaf).evictions, c.stats(Inner).evictions), (3, 1));
        // A leaf page admitted into a cache full of inner pages leaves first:
        // it is its own victim.
        assert_eq!(order(admit_as(&mut c, 40, Leaf)), vec![40]);
    }

    // ------------------------------------------------- leaf entries: SLRU --

    #[test]
    fn point_miss_admits_and_rereference_promotes() {
        let mut c = Cache::new(10);
        assert!(!get_run(&mut c, 4, 2));
        admit_run(&mut c, 4, 2);
        assert!(get_run(&mut c, 4, 2));
        let s = c.stats(Leaf);
        assert_eq!((s.hits, s.misses), (2, 2), "a two-page run counts two lookups");
        assert_eq!(c.used_pages(), 2);
        assert_eq!(c.protected_pages, 2);
        // A second admission of a resident page (two in-flight reads missed
        // it together) refreshes the bytes and leaves its segment alone.
        c.admit(5, image(7), Leaf, &mut Vec::new());
        assert_eq!(c.protected_pages, 2);
        assert_eq!(c.peek(5).unwrap(), image(7));
    }

    #[test]
    fn scan_miss_is_a_bypass_and_scan_hits_do_not_promote() {
        let mut c = Cache::new(10);
        assert!(c.scan(4, 2, Leaf).is_none());
        assert_eq!(
            c.stats(Leaf).scan_bypasses,
            2,
            "each page of the run read past the cache"
        );
        assert_eq!(c.stats(Leaf).misses, 0);
        // A run with one page resident is still read past the cache.
        admit_as(&mut c, 4, Leaf);
        assert!(c.scan(4, 2, Leaf).is_none());
        assert_eq!((c.stats(Leaf).scan_bypasses, c.stats(Leaf).hits), (4, 0));
        // A resident run serves scan hits.
        admit_as(&mut c, 5, Leaf);
        let hits: Vec<PageImage> = c.scan(4, 2, Leaf).unwrap().collect();
        assert_eq!(hits, vec![image(4), image(5)]);
        assert_eq!(c.stats(Leaf).hits, 2);
        assert_eq!(c.protected_pages, 0);
    }

    #[test]
    fn eviction_drains_probation_before_protected() {
        let mut c = Cache::new(6);
        // Protect leaf 0 with a re-reference.
        admit_run(&mut c, 0, 2);
        get_run(&mut c, 0, 2);
        // Fill with one-touch probation leaves; leaf 0 must survive.
        for i in 0..8u64 {
            let first = 10 + i * 2;
            get_run(&mut c, first, 2);
            admit_run(&mut c, first, 2);
        }
        assert!(
            c.scan(0, 2, Leaf).is_some(),
            "protected leaf evicted by probation churn"
        );
        assert!(c.stats(Leaf).evictions > 0);
        assert!(c.used_pages() <= 6);
    }

    #[test]
    fn scan_stream_cannot_evict_the_point_working_set() {
        let mut c = Cache::new(8);
        // Hot set: 3 leaves, touched twice (→ protected).
        for first in [0u64, 2, 4] {
            get_run(&mut c, first, 2);
            admit_run(&mut c, first, 2);
            get_run(&mut c, first, 2);
        }
        // A 100-leaf scan streams past: the device fetch happens on each
        // miss, and a scan read does NOT admit.
        for i in 0..100u64 {
            assert!(c.scan(100 + i * 2, 2, Leaf).is_none());
        }
        for first in [0u64, 2, 4] {
            assert!(c.scan(first, 2, Leaf).is_some(), "scan evicted hot leaf {first}");
        }
        assert_eq!(c.stats(Leaf).scan_bypasses, 200);
        assert_eq!(c.stats(Leaf).evictions, 0);
    }

    #[test]
    fn protected_cap_demotes_instead_of_growing() {
        let mut c = Cache::new(10); // protected cap = 8
        for first in [0u64, 2, 4, 6, 8] {
            get_run(&mut c, first, 2);
            admit_run(&mut c, first, 2);
            get_run(&mut c, first, 2); // promote
        }
        // All ten pages were promoted, but protected holds ≤ 8 pages: two
        // were demoted back to probation, none were lost.
        assert_eq!(c.used_pages(), 10);
        assert_eq!(c.protected_pages, 8);
        assert!(c.scan(0, 10, Leaf).is_some());
    }

    #[test]
    fn hits_on_a_resident_region_keep_probation_in_order() {
        let mut c = Cache::new(6);
        for first in [0u64, 2, 4] {
            admit_run(&mut c, first, 2);
        }
        // Leaf 2 is promoted by its first hit and refreshed by the rest.
        for _ in 0..100_000 {
            get_run(&mut c, 2, 2);
        }
        // Probation still drains oldest-first (leaf 0, then leaf 4) before
        // the protected leaf 2 is touched.
        for (first, survivors) in [(10u64, [2u64, 4]), (12, [2, 10])] {
            admit_run(&mut c, first, 2);
            for s in survivors {
                assert!(c.scan(s, 2, Leaf).is_some(), "leaf {s} evicted out of order");
            }
        }
        assert_eq!(c.stats(Leaf).evictions, 4);
    }

    /// A removed entry's slot is the next admission's: hits add none, and
    /// churn at a fixed budget needs no more slots than the most entries
    /// resident at once — the budget's, plus the one an admission links
    /// before it evicts.
    #[test]
    fn slots_are_reused_not_grown() {
        for class in [Inner, Leaf] {
            let mut c = Cache::new(8);
            for page in 0..8 {
                admit_as(&mut c, page, class);
            }
            for i in 0..100_000u64 {
                c.get(i % 8, class);
            }
            assert_eq!(c.slots.len(), 8, "hits allocated slots");
            for page in 8..100_008 {
                admit_as(&mut c, page, class);
                c.get(page - 4, class);
            }
            assert_eq!(c.index.len(), 8);
            assert_eq!(c.slots.len(), 9, "churn grew the slots");
            assert_eq!(c.vacant.len(), 1);
            assert_eq!(c.stats(class).evictions, 100_000);
        }
    }

    /// A page of a leaf is its own entry: invalidating a page inside a
    /// resident leaf drops that page alone, and a region write drops each
    /// page it covers.
    #[test]
    fn invalidation_by_interior_page_and_by_range() {
        let mut c = Cache::new(16);
        admit_run(&mut c, 4, 4);
        admit_run(&mut c, 8, 2);
        c.invalidate_page(6);
        assert_eq!(
            entries(&c).iter().map(|&(page, _)| page).collect::<Vec<_>>(),
            vec![4, 5, 7, 8, 9]
        );
        assert!(c.scan(4, 4, Leaf).is_none(), "the leaf at 4 lost a page");
        for page in 7..9 {
            c.invalidate_page(page);
        }
        assert!(c.scan(4, 2, Leaf).is_some() && c.scan(9, 1, Leaf).is_some());
        assert_eq!(c.used_pages(), 3);
    }

    /// Images the cache lets go of in place — replaced, swapped, invalidated —
    /// go to this thread's spares, except one a reader still holds.
    #[test]
    fn replaced_swapped_and_invalidated_images_become_spares() {
        let mut c = Cache::new(16);
        let spares = pio::spare_images;
        let base = spares();
        put(&mut c, 1, false);
        let held = c.get(1, Inner).unwrap();
        put(&mut c, 1, false);
        assert_eq!(spares(), base, "a held image is not kept");
        put(&mut c, 1, false);
        assert_eq!(spares(), base + 1, "install replaced an unheld image");
        c.admit(1, image(9), Leaf, &mut Vec::new());
        assert_eq!(spares(), base + 2, "admission swapped one in");
        admit_run(&mut c, 4, 4);
        c.invalidate_page(6);
        assert_eq!(spares(), base + 3, "invalidate_page");
        assert!(held.iter().all(|&b| b == 1));
    }

    // ------------------------------------------------------------ differential --

    /// One entry of the naive reference.
    #[derive(Debug, Clone, PartialEq)]
    struct Slot {
        page: PageId,
        data: PageImage,
        dirty: bool,
    }

    /// The naive reference the differential test holds [`Cache`] to: a map
    /// of pages kept as three `Vec`s in recency order (front = next victim),
    /// probation, protected and inner; every operation is a linear scan.
    #[derive(Debug, Default)]
    struct Model {
        capacity: u64,
        lists: [Vec<Slot>; 3],
        stats: [CacheStats; 2],
    }

    impl Model {
        /// The list and position of `page`.
        fn find(&self, page: PageId) -> Option<(usize, usize)> {
            (0..3).find_map(|l| self.lists[l].iter().position(|s| s.page == page).map(|i| (l, i)))
        }

        fn class(l: usize) -> PageClass {
            if l == 2 {
                Inner
            } else {
                Leaf
            }
        }

        fn get(&mut self, page: PageId, class: PageClass) -> Option<PageImage> {
            let Some((l, i)) = self.find(page) else {
                self.stats[class as usize].misses += 1;
                return None;
            };
            self.stats[Self::class(l) as usize].hits += 1;
            let slot = self.lists[l].remove(i);
            let data = slot.data.clone();
            // Inner pages stay inner; leaf pages go to protected.
            self.lists[if l == 2 { 2 } else { 1 }].push(slot);
            self.settle(&mut Vec::new());
            Some(data)
        }

        fn scan(&mut self, first: PageId, n: u64, class: PageClass) -> Option<Vec<PageImage>> {
            let found: Option<Vec<(usize, usize)>> = (first..first + n).map(|p| self.find(p)).collect();
            let Some(found) = found else {
                self.stats[class as usize].scan_bypasses += n;
                return None;
            };
            let mut out = Vec::new();
            for (l, i) in found {
                self.stats[Self::class(l) as usize].hits += 1;
                out.push(self.lists[l][i].data.clone());
            }
            Some(out)
        }

        /// Demotes, then evicts, until both budgets hold.
        fn settle(&mut self, victims: &mut Vec<(PageId, bool)>) {
            while self.lists[1].len() as u64 > self.capacity * 4 / 5 {
                let slot = self.lists[1].remove(0);
                self.lists[0].push(slot);
            }
            while self.lists.iter().map(Vec::len).sum::<usize>() as u64 > self.capacity {
                let l = (0..3).find(|&l| !self.lists[l].is_empty()).unwrap();
                let slot = self.lists[l].remove(0);
                let stats = &mut self.stats[Self::class(l) as usize];
                stats.evictions += 1;
                stats.dirty_evictions += slot.dirty as u64;
                victims.push((slot.page, slot.dirty));
            }
        }

        fn install(&mut self, slot: Slot, class: PageClass, victims: &mut Vec<(PageId, bool)>) {
            self.invalidate(slot.page);
            if self.capacity > 0 {
                self.lists[if class == Inner { 2 } else { 0 }].push(slot);
                self.settle(victims);
            }
        }

        fn admit(&mut self, slot: Slot, class: PageClass, victims: &mut Vec<(PageId, bool)>) {
            match self.find(slot.page) {
                Some((l, i)) => {
                    let old = &mut self.lists[l][i];
                    if !old.dirty {
                        old.data = slot.data;
                    }
                }
                None => self.install(slot, class, victims),
            }
        }

        fn invalidate(&mut self, page: PageId) {
            for list in &mut self.lists {
                list.retain(|s| s.page != page);
            }
        }

        fn take_dirty(&mut self) -> Vec<(PageId, PageImage)> {
            let mut out = Vec::new();
            for slot in self.lists.iter_mut().flatten().filter(|s| s.dirty) {
                slot.dirty = false;
                out.push((slot.page, slot.data.clone()));
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
            assert_eq!(c.index.get(&e.page), Some(&slot), "{ctx}: index of slot {slot}");
            out.push(Slot {
                page: e.page,
                data: e.data.clone().expect("a linked slot holds an image"),
                dirty: e.dirty,
            });
            (prev, slot) = (slot, e.next);
        }
        assert_eq!(list.tail, prev, "{ctx}: tail of {seg:?}");
        out
    }

    /// Drives [`Cache`] and [`Model`] through the same seeded stream of every
    /// public operation — point lookups, scans of runs, installs, admissions,
    /// invalidations, `take_dirty`, resizes, clears — inner pages only (the
    /// pool of a tree that tags no leaves), then both classes, and demands identical
    /// answers, counters, victim sequences and recency orders after every
    /// step, plus the structural invariants the model cannot see.
    /// `CRASH_SEED` replays a failure.
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
            let capacity = rand(80);
            let mut cache = Cache::new(capacity);
            let mut model = Model {
                capacity,
                ..Model::default()
            };
            for step in 0..30_000u32 {
                let ctx = format!("CRASH_SEED={seed} mixed={mixed} step={step}");
                // 60 pages: resizes are rare, so between them the cache runs
                // long phases either under eviction pressure or with every
                // page resident, where only the relinks of hits reorder the
                // lists.
                let page = rand(60);
                let class = if mixed && rand(3) != 0 { Leaf } else { Inner };
                let data = PageImage::from(vec![step as u8; 4]);
                let slot = Slot {
                    page,
                    data: data.clone(),
                    dirty: false,
                };
                let mut victims = Vec::new();
                let mut expected = Vec::new();
                match rand(2000) {
                    0..=599 => assert_eq!(cache.get(page, class), model.get(page, class), "{ctx}: get"),
                    600..=799 => {
                        let n = 1 + rand(4);
                        let scanned = cache.scan(page, n, class).map(|hits| hits.collect::<Vec<_>>());
                        assert_eq!(scanned, model.scan(page, n, class), "{ctx}: scan");
                    }
                    800..=1199 => {
                        let dirty = rand(3) == 0;
                        cache.install(page, data, dirty, class, &mut victims);
                        model.install(Slot { dirty, ..slot }, class, &mut expected);
                    }
                    1200..=1699 => {
                        cache.admit(page, data, class, &mut victims);
                        model.admit(slot, class, &mut expected);
                    }
                    1700..=1899 => {
                        cache.invalidate_page(page);
                        model.invalidate(page);
                    }
                    1900..=1989 => assert_eq!(cache.take_dirty(), model.take_dirty(), "{ctx}: take_dirty"),
                    1990..=1997 => {
                        model.capacity = rand(80);
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
                    cache.used_pages(),
                    model.lists.iter().map(Vec::len).sum::<usize>() as u64,
                    "{ctx}: an entry is on no list"
                );
                assert_eq!(cache.protected_pages, model.lists[1].len() as u64, "{ctx}");
                assert!(cache.used_pages() <= cache.capacity_pages, "{ctx}: over budget");
                assert!(
                    cache.protected_pages <= cache.protected_cap(),
                    "{ctx}: protected over its cap"
                );
                assert_eq!(
                    cache.slots.len(),
                    cache.index.len() + cache.vacant.len(),
                    "{ctx}: a slot is neither indexed nor vacant"
                );
            }
        }
    }
}
