//! An LRU buffer pool with per-entry weights.
//!
//! The pool is a pure in-memory structure: it never performs I/O itself. Eviction
//! returns the victim to the caller ([`crate::CachedStore`]) which decides whether a
//! write-back is needed. Entries carry a *weight* in pages so that a multi-page leaf
//! node of the PIO B-tree occupies as much of the pool as it really uses — this is
//! what makes the buffer-pool / OPQ trade-off of Figure 11 meaningful.

use crate::page::PageId;
use std::collections::{HashMap, VecDeque};

/// Cache policy applied by [`crate::CachedStore`] on writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Dirty pages stay in the pool and are written back on eviction or flush
    /// (no-force, like a conventional DBMS buffer manager).
    WriteBack,
    /// Every write goes straight to the device; the pool only holds clean copies.
    /// This is the PIO B-tree policy — it never keeps dirty buffers, so reads and
    /// writes are never interleaved by buffer-miss evictions (Section 4.2).
    WriteThrough,
}

/// Hit/miss/eviction counters of a buffer pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Lookups that found the page resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Evicted entries that were dirty (and therefore required a write-back).
    pub dirty_evictions: u64,
}

impl BufferPoolStats {
    /// Hit ratio in `[0, 1]`; 0 when the pool has not been used yet.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Frame {
    data: Vec<u8>,
    dirty: bool,
    weight: u64,
    stamp: u64,
}

/// An LRU cache of page (or page-region) images, bounded by a capacity expressed in
/// pages.
#[derive(Debug)]
pub struct BufferPool {
    capacity_pages: u64,
    used_pages: u64,
    frames: HashMap<PageId, Frame>,
    /// Recency order as (page, stamp) pairs; a pair whose stamp no longer
    /// matches its frame is stale and skipped on pop.
    lru: VecDeque<(PageId, u64)>,
    next_stamp: u64,
    stats: BufferPoolStats,
}

/// Queue pairs tolerated beyond twice the live entries before stale ones are
/// compacted away (shared with [`crate::LeafCache`]).
pub(crate) const LRU_SLACK: usize = 64;

/// An entry evicted from the pool.
#[derive(Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Key of the evicted entry (its first page id).
    pub page: PageId,
    /// The evicted image.
    pub data: Vec<u8>,
    /// Whether the image was dirty (needs a write-back).
    pub dirty: bool,
}

impl BufferPool {
    /// Creates a pool that can hold up to `capacity_pages` pages worth of entries.
    /// A capacity of zero is allowed and simply caches nothing.
    pub fn new(capacity_pages: u64) -> Self {
        Self {
            capacity_pages,
            used_pages: 0,
            frames: HashMap::new(),
            lru: VecDeque::new(),
            next_stamp: 0,
            stats: BufferPoolStats::default(),
        }
    }

    /// The configured capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Changes the capacity, evicting entries (LRU first) until the pool fits.
    /// Returns the evicted entries so the caller can write back dirty ones.
    pub fn resize(&mut self, capacity_pages: u64) -> Vec<Evicted> {
        self.capacity_pages = capacity_pages;
        let mut evicted = Vec::new();
        while self.used_pages > self.capacity_pages {
            match self.pop_lru() {
                Some(v) => evicted.push(v),
                None => break,
            }
        }
        evicted
    }

    /// Pages currently resident.
    pub fn used_pages(&self) -> u64 {
        self.used_pages
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }

    fn touch(&mut self, page: PageId) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(f) = self.frames.get_mut(&page) {
            f.stamp = stamp;
        }
        self.push_lru(page, stamp);
    }

    /// Queues a recency pair. Every hit leaves a stale pair behind and only an
    /// eviction pops them, so a working set that fits would grow the queue for
    /// ever: once stale pairs outnumber live ones (plus a floor that keeps tiny
    /// pools from compacting constantly) they are dropped in place. Live pairs
    /// keep their order, so eviction order is unchanged; the cost is amortised
    /// O(1) per push.
    fn push_lru(&mut self, page: PageId, stamp: u64) {
        self.lru.push_back((page, stamp));
        if self.lru.len() > 2 * self.frames.len() + LRU_SLACK {
            let frames = &self.frames;
            self.lru
                .retain(|&(page, stamp)| frames.get(&page).is_some_and(|f| f.stamp == stamp));
        }
    }

    /// Looks a page up, updating recency and hit/miss counters. Returns a clone of the
    /// cached image.
    pub fn get(&mut self, page: PageId) -> Option<Vec<u8>> {
        if self.frames.contains_key(&page) {
            self.stats.hits += 1;
            self.touch(page);
            Some(self.frames[&page].data.clone())
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Looks a page up without counting a hit or miss (used for dirty-flag queries).
    pub fn peek(&self, page: PageId) -> Option<&[u8]> {
        self.frames.get(&page).map(|f| f.data.as_slice())
    }

    /// Whether the entry is resident and dirty.
    pub fn is_dirty(&self, page: PageId) -> bool {
        self.frames.get(&page).map(|f| f.dirty).unwrap_or(false)
    }

    /// Inserts (or replaces) an entry of `weight` pages, returning every entry that
    /// had to be evicted to make room. Entries larger than the whole pool are not
    /// cached (an empty eviction list is returned and the entry is dropped).
    pub fn insert(&mut self, page: PageId, data: Vec<u8>, dirty: bool, weight: u64) -> Vec<Evicted> {
        let mut evicted = Vec::new();
        if weight > self.capacity_pages {
            // Too large to cache at all. Still surface nothing to write back: the
            // caller handles durability before inserting.
            return evicted;
        }
        if let Some(old) = self.frames.remove(&page) {
            self.used_pages -= old.weight;
            // keep dirtiness if the replacement says clean but the old copy was dirty
            // and the caller did not write it back; the caller controls this by
            // passing the right flag, so no merging is done here.
        }
        while self.used_pages + weight > self.capacity_pages {
            match self.pop_lru() {
                Some(v) => evicted.push(v),
                None => break,
            }
        }
        self.used_pages += weight;
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.frames.insert(
            page,
            Frame {
                data,
                dirty,
                weight,
                stamp,
            },
        );
        self.push_lru(page, stamp);
        evicted
    }

    /// Marks a resident entry dirty (no-op if absent). Returns whether the entry was
    /// resident.
    pub fn mark_dirty(&mut self, page: PageId) -> bool {
        if let Some(f) = self.frames.get_mut(&page) {
            f.dirty = true;
            true
        } else {
            false
        }
    }

    /// Removes an entry without counting an eviction (used when a page is freed).
    pub fn remove(&mut self, page: PageId) -> Option<Evicted> {
        self.frames.remove(&page).map(|f| {
            self.used_pages -= f.weight;
            Evicted {
                page,
                data: f.data,
                dirty: f.dirty,
            }
        })
    }

    /// Drains every dirty entry (leaving clean copies resident) and returns them —
    /// used by `flush`.
    pub fn take_dirty(&mut self) -> Vec<(PageId, Vec<u8>)> {
        let mut out = Vec::new();
        for (page, frame) in self.frames.iter_mut() {
            if frame.dirty {
                frame.dirty = false;
                out.push((*page, frame.data.clone()));
            }
        }
        out.sort_by_key(|(p, _)| *p);
        out
    }

    /// Removes every entry (used when the pool is resized between experiments).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.lru.clear();
        self.used_pages = 0;
    }

    fn pop_lru(&mut self) -> Option<Evicted> {
        while let Some((page, stamp)) = self.lru.pop_front() {
            let current = match self.frames.get(&page) {
                Some(f) => f.stamp,
                None => continue,
            };
            if current != stamp {
                continue; // stale queue entry
            }
            let frame = self.frames.remove(&page).expect("checked above");
            self.used_pages -= frame.weight;
            self.stats.evictions += 1;
            if frame.dirty {
                self.stats.dirty_evictions += 1;
            }
            return Some(Evicted {
                page,
                data: frame.data,
                dirty: frame.dirty,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let mut p = BufferPool::new(4);
        assert!(p.get(1).is_none());
        p.insert(1, vec![1], false, 1);
        assert_eq!(p.get(1).unwrap(), vec![1]);
        let s = p.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = BufferPool::new(3);
        p.insert(1, vec![1], false, 1);
        p.insert(2, vec![2], false, 1);
        p.insert(3, vec![3], false, 1);
        // touch 1 so 2 becomes the LRU victim
        p.get(1);
        let ev = p.insert(4, vec![4], false, 1);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].page, 2);
        assert!(p.peek(1).is_some());
        assert!(p.peek(2).is_none());
        assert!(p.peek(3).is_some());
        assert!(p.peek(4).is_some());
    }

    #[test]
    fn dirty_evictions_are_flagged() {
        let mut p = BufferPool::new(1);
        p.insert(1, vec![1], true, 1);
        let ev = p.insert(2, vec![2], false, 1);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty);
        assert_eq!(p.stats().dirty_evictions, 1);
    }

    #[test]
    fn weights_count_towards_capacity() {
        let mut p = BufferPool::new(8);
        p.insert(0, vec![0; 4], false, 4);
        p.insert(10, vec![1; 4], false, 4);
        assert_eq!(p.used_pages(), 8);
        // Inserting a 4-page entry must evict one of the existing 4-page entries.
        let ev = p.insert(20, vec![2; 4], false, 4);
        assert_eq!(ev.len(), 1);
        assert_eq!(p.used_pages(), 8);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let mut p = BufferPool::new(2);
        let ev = p.insert(1, vec![0; 3], false, 3);
        assert!(ev.is_empty());
        assert!(p.peek(1).is_none());
        assert_eq!(p.used_pages(), 0);
    }

    #[test]
    fn replacement_updates_weight_accounting() {
        let mut p = BufferPool::new(4);
        p.insert(1, vec![1; 2], false, 2);
        p.insert(1, vec![2; 1], false, 1);
        assert_eq!(p.used_pages(), 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn mark_dirty_and_take_dirty() {
        let mut p = BufferPool::new(4);
        p.insert(1, vec![1], false, 1);
        p.insert(2, vec![2], false, 1);
        assert!(p.mark_dirty(1));
        assert!(!p.mark_dirty(99));
        assert!(p.is_dirty(1));
        assert!(!p.is_dirty(2));
        let dirty = p.take_dirty();
        assert_eq!(dirty, vec![(1, vec![1])]);
        assert!(!p.is_dirty(1), "take_dirty cleans the entry");
        assert!(p.peek(1).is_some(), "entry stays resident");
    }

    #[test]
    fn remove_and_clear() {
        let mut p = BufferPool::new(4);
        p.insert(1, vec![1], true, 1);
        let removed = p.remove(1).unwrap();
        assert!(removed.dirty);
        assert!(p.remove(1).is_none());
        p.insert(2, vec![2], false, 1);
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.used_pages(), 0);
    }

    #[test]
    fn zero_capacity_pool_caches_nothing() {
        let mut p = BufferPool::new(0);
        let ev = p.insert(1, vec![1], false, 1);
        assert!(ev.is_empty());
        assert!(p.get(1).is_none());
    }

    #[test]
    fn hits_on_a_resident_entry_do_not_grow_the_queue() {
        let mut p = BufferPool::new(3);
        p.insert(1, vec![1], false, 1);
        p.insert(2, vec![2], false, 1);
        p.insert(3, vec![3], false, 1);
        for _ in 0..100_000 {
            p.get(2);
            assert!(p.lru.len() <= 2 * p.len() + LRU_SLACK);
        }
        // Compaction kept the live pairs in order: 1 is still the LRU victim,
        // then 3, and the much-hit 2 goes last.
        assert_eq!(p.insert(4, vec![4], false, 1)[0].page, 1);
        assert_eq!(p.insert(5, vec![5], false, 1)[0].page, 3);
        assert_eq!(p.insert(6, vec![6], false, 1)[0].page, 2);
    }

    #[test]
    fn stale_lru_entries_are_skipped() {
        let mut p = BufferPool::new(2);
        p.insert(1, vec![1], false, 1);
        p.insert(2, vec![2], false, 1);
        // touch page 1 many times to generate stale queue entries for it
        for _ in 0..100 {
            p.get(1);
        }
        let ev = p.insert(3, vec![3], false, 1);
        // victim must be page 2 (page 1 was touched last), despite the stale entries
        assert_eq!(ev[0].page, 2);
        assert!(p.peek(1).is_some());
    }
}
