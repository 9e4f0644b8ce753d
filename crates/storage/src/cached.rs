//! A page store with one cache in front of it — the component the indexes
//! talk to.
//!
//! [`CachedStore`] composes a [`PageStore`] with two instances of the one
//! [`Cache`] implementation, one per **page class**:
//!
//! * the **page class** holds single pages (internal nodes, and the last
//!   leaf segments bupdate reads and writes) under the `pool_pages` budget
//!   with a protected share of zero — the plain-LRU buffer pool the paper
//!   sweeps in Figure 9 and trades off against the OPQ in Figure 11;
//! * the optional **region class** ([`CachedStore::set_leaf_cache`]) holds
//!   leaf pieces — whole multi-page leaf regions, and the single segments a
//!   point lookup of a fenced leaf reads — under their own budget with a 4/5
//!   protected share and the scan bypass, so `range_search` streams cannot
//!   evict the point-lookup working set.
//!
//! There is one read path and one write path, both over `(first_page,
//! n_pages)` regions, and a page is a one-page region: a region is routed to
//! its class by its length, except that a read submitted as leaf pieces
//! ([`CachedStore::submit_leaf_read`]) goes to the region class whatever its
//! length, so lookup segments never crowd internal nodes out of the page
//! class, and the leaf budget caches the leaves a lookup reads (routed by
//! length, the segments would leave the region class empty: `fig09_leaf_cache`'s
//! split of one budget into pool and leaf cache then runs no faster than the
//! whole budget as pool). The region class may thus hold a segment
//! `(leaf + s, 1)` beside regions, even one starting at the same page as a
//! whole `(leaf, L)`: a hit there needs the same `(first_page, n_pages)` — a
//! read of the whole region is never handed a segment — and an admission
//! drops every resident entry it overlaps, so resident entries stay
//! disjoint, which [`Cache::invalidate_page`] relies on. Reads look both
//! classes up at submission and send the misses of both to the device as
//! **one** batch, so a warm cache
//! automatically reduces the outstanding-I/O level — exactly the behaviour the
//! cost model of Section 3.5 assumes. Writes apply the [`WritePolicy`] to page
//! images and write region images around the cache:
//!
//! * the baseline B+-tree and B-link tree use **write-back** (a conventional
//!   no-force buffer manager: dirty nodes are written on eviction), and
//! * the PIO B-tree uses **write-through** (it keeps no dirty buffers; all
//!   node writes happen inside bupdate via psync I/O).
//!
//! The two classes cache overlapping page ranges under different keys, so they
//! are kept coherent by one rule, applied at write submission: **a write of
//! `[first, first + n)` drops every intersecting entry of the other class**
//! (and, for a region, of its own — regions are never installed). Every image
//! on its way to the device has its checksums recorded, and every image
//! fetched from it is verified; see [`crate::integrity`].
//!
//! Reads return [`PageImage`]s — shared, immutable images. **Hits are shared,
//! writes replace**: a hit hands out another reference to the image the cache
//! holds (no copy), a miss admits the image the device filled — the very
//! image it returns, never a copy of it — a page write installs the very
//! image its caller handed to the device, and a write,
//! refresh, eviction, free or [`CachedStore::drop_cache`] only ever swaps or
//! drops the cache's own reference. A caller may therefore keep an image as
//! long as it likes (bupdate keeps its Phase-A images as undo pre-images); it
//! is a snapshot of the page at the time of the read. An image the cache lets
//! go of that nobody else holds becomes a spare of the releasing thread's
//! ([`pio::recycle_image`]), which that thread's next miss or encoded page
//! fills instead of allocating.

use crate::cache::{AccessHint, Cache, CacheStats, Evicted};
use crate::integrity::{page_checksum, Integrity, IntegrityStats, ScrubReport};
use crate::page::{page_offset, PageId, PageImage};
use crate::store::{PageStore, ReadTicket, WriteTicket};
use parking_lot::{Mutex, MutexGuard};
use pio::{IoError, IoResult};

/// Cache policy applied by [`CachedStore`] to single-page writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Dirty pages stay in the cache and are written back on eviction or flush
    /// (no-force, like a conventional DBMS buffer manager).
    WriteBack,
    /// Every write goes straight to the device; the cache only holds clean copies.
    /// This is the PIO B-tree policy — it never keeps dirty buffers, so reads and
    /// writes are never interleaved by buffer-miss evictions (Section 4.2).
    WriteThrough,
}

/// Protected share (in fifths of the budget) of the region class.
const REGION_PROTECTED_FIFTHS: u64 = 4;

/// An in-flight cache-aware read: hits of either class are captured at
/// submission, the misses travel as one device batch. Redeemed with
/// [`CachedStore::complete_read`].
#[derive(Debug)]
#[must_use = "an in-flight read must be completed to obtain its buffers"]
pub struct CachedReadTicket {
    /// Hit slots filled at submission; miss slots are `None` until completion.
    results: Vec<Option<PageImage>>,
    /// `(slot, first page, page count)` of every miss, in device-batch order.
    missing: Vec<(usize, PageId, u64)>,
    /// The in-flight device batch for `missing`; `None` when everything hit.
    ticket: Option<ReadTicket>,
    /// Admission hint applied to the region-class misses at completion.
    hint: AccessHint,
    /// Whether every region is a leaf piece ([`CachedStore::submit_leaf_read`]).
    leaf: bool,
}

/// An in-flight write. Cached copies of the overlapped pages are invalidated
/// at submission; durability is observed by [`CachedStore::complete_write`].
#[derive(Debug)]
#[must_use = "an in-flight write must be completed to observe durability"]
pub struct CachedWriteTicket {
    /// The in-flight device batch; `None` when the call completed at
    /// submission (it carried page images) or sent nothing to the device.
    pending: Option<WriteTicket>,
}

/// The two cache classes, behind one lock so the coherence rule between them
/// is applied atomically.
#[derive(Debug)]
struct Classes {
    pages: Cache,
    /// Disabled (`None`) unless [`CachedStore::set_leaf_cache`] installs one,
    /// so default construction never caches leaf regions.
    regions: Option<Cache>,
}

impl Classes {
    /// Routes a read of `n_pages` pages: the class the region belongs to (if
    /// enabled) and the hint its accesses carry there — the page class
    /// ignores the caller's hint, single pages are always `Point` accesses.
    /// A leaf piece goes to the region class whatever its length.
    fn route(&mut self, n_pages: u64, hint: AccessHint, leaf: bool) -> (Option<&mut Cache>, AccessHint) {
        if n_pages == 1 && !leaf {
            (Some(&mut self.pages), AccessHint::Point)
        } else {
            (self.regions.as_mut(), hint)
        }
    }
}

/// The page class, held under the cache lock for a walk that does no I/O —
/// see [`CachedStore::resident_pages`].
#[derive(Debug)]
pub struct ResidentPages<'a> {
    caches: MutexGuard<'a, Classes>,
}

impl ResidentPages<'_> {
    /// The image of `page` if the page class holds it, counted and refreshed
    /// like any `Point` hit. An absent page counts nothing: the read the
    /// caller falls back to counts its miss.
    pub fn get(&mut self, page: PageId) -> Option<PageImage> {
        self.caches.pages.get_resident(page, 1, AccessHint::Point)
    }
}

/// A [`PageStore`] fronted by one [`Cache`] per page class (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct CachedStore {
    store: PageStore,
    policy: WritePolicy,
    caches: Mutex<Classes>,
    integrity: Integrity,
}

impl CachedStore {
    /// Creates a cached store with a page class of `capacity_pages` pages and
    /// the given write policy. The region class starts disabled; see
    /// [`CachedStore::set_leaf_cache`].
    pub fn new(store: PageStore, capacity_pages: u64, policy: WritePolicy) -> Self {
        Self {
            store,
            policy,
            caches: Mutex::new(Classes {
                // No protected share: the page class is a plain LRU.
                pages: Cache::new(capacity_pages, 0),
                regions: None,
            }),
            integrity: Integrity::default(),
        }
    }

    /// The checksum sidecar's counters.
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.integrity.stats()
    }

    /// Pages currently covered by a recorded checksum (scrub's working set).
    pub fn tracked_pages(&self) -> usize {
        self.integrity.tracked_pages()
    }

    /// Installs (or, with `capacity_pages == 0`, removes) the scan-resistant
    /// region class. Replaces any existing one, discarding its contents and
    /// counters.
    pub fn set_leaf_cache(&self, capacity_pages: u64) {
        self.caches.lock().regions = (capacity_pages > 0).then(|| Cache::new(capacity_pages, REGION_PROTECTED_FIFTHS));
    }

    /// Region-class counters (zeros while the class is disabled).
    pub fn leaf_cache_stats(&self) -> CacheStats {
        self.caches
            .lock()
            .regions
            .as_ref()
            .map(Cache::stats)
            .unwrap_or_default()
    }

    /// Page-class counters (a zero-budget class still counts its misses).
    pub fn pool_stats(&self) -> CacheStats {
        self.caches.lock().pages.stats()
    }

    /// The underlying page store.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// The write policy in effect.
    pub fn policy(&self) -> WritePolicy {
        self.policy
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> usize {
        self.store.page_size()
    }

    /// Total simulated / wall-clock I/O time spent by the underlying backend, µs.
    pub fn io_elapsed_us(&self) -> f64 {
        self.store.io_elapsed_us()
    }

    /// The backend's advisory queue depth (see
    /// [`pio::IoQueue::queue_depth_hint`]), used to resolve `Auto` pipeline
    /// depths at tree construction.
    pub fn queue_depth_hint(&self) -> Option<usize> {
        self.store.queue_depth_hint()
    }

    /// Allocates a page (delegates to the store).
    pub fn allocate(&self) -> PageId {
        self.store.allocate()
    }

    /// Allocates a contiguous run of pages (delegates to the store).
    pub fn allocate_contiguous(&self, n: u64) -> PageId {
        self.store.allocate_contiguous(n)
    }

    /// Raises the allocation frontier to at least `pages` (reopen path — see
    /// [`PageStore::ensure_high_water`]).
    pub fn ensure_high_water(&self, pages: u64) {
        self.store.ensure_high_water(pages)
    }

    /// Frees a page, dropping every cached copy (of either class) and its
    /// checksum. A dirty copy is intentionally discarded — the page no longer
    /// belongs to the caller.
    pub fn free(&self, page: PageId) {
        {
            let mut caches = self.caches.lock();
            caches.pages.invalidate_page(page);
            if let Some(regions) = caches.regions.as_mut() {
                regions.invalidate_page(page);
            }
        }
        self.integrity.forget(page);
        self.store.free(page);
    }

    // ------------------------------------------------------------ the read path --

    /// Submits a cache-aware batched read without waiting. Each `(first_page,
    /// n_pages)` region is looked up in its class — multi-page regions with
    /// `hint`, single pages always as `Point` accesses — and the misses of
    /// both classes go to the device as one in-flight batch that overlaps
    /// whatever else is outstanding on the backend.
    ///
    /// A region that reaches past the allocation high-water mark was never
    /// written by anyone: the id can only come from a rotted pointer, so the
    /// read is refused as [`IoError::Corruption`] before the id turns into an
    /// offset (where a large enough one would wrap onto another page's bytes,
    /// which no recorded checksum would contradict).
    pub fn submit_read(&self, regions: &[(PageId, u64)], hint: AccessHint) -> IoResult<CachedReadTicket> {
        self.submit(regions, hint, false)
    }

    /// [`CachedStore::submit_read`] for pieces of leaf nodes: every region —
    /// a one-page leaf segment too — is looked up in and admitted to the
    /// region class, so segment pages never enter the page class, which
    /// holds the internal nodes. A hit needs an entry of the same
    /// `(first_page, n_pages)`; see the [module docs](self).
    pub fn submit_leaf_read(&self, regions: &[(PageId, u64)], hint: AccessHint) -> IoResult<CachedReadTicket> {
        self.submit(regions, hint, true)
    }

    fn submit(&self, regions: &[(PageId, u64)], hint: AccessHint, leaf: bool) -> IoResult<CachedReadTicket> {
        let high_water = self.store.high_water_pages();
        if let Some(&(first, n)) = regions.iter().find(|&&(first, n)| n > high_water.saturating_sub(first)) {
            return Err(IoError::Corruption {
                offset: page_offset(first, self.page_size()),
                len: n.saturating_mul(self.page_size() as u64),
            });
        }
        let mut results: Vec<Option<PageImage>> = vec![None; regions.len()];
        let mut missing: Vec<(usize, PageId, u64)> = Vec::new();
        {
            let mut caches = self.caches.lock();
            for (i, &(first, n)) in regions.iter().enumerate() {
                let (class, hint) = caches.route(n, hint, leaf);
                match class.and_then(|class| class.get(first, n, hint)) {
                    Some(hit) => results[i] = Some(hit),
                    None => {
                        // Sized once, on the first miss: an all-hit read
                        // allocates nothing here.
                        if missing.capacity() == 0 {
                            missing.reserve_exact(regions.len() - i);
                        }
                        missing.push((i, first, n));
                    }
                }
            }
        }
        let ticket = if missing.is_empty() {
            None
        } else {
            let to_fetch: Vec<(PageId, u64)> = missing.iter().map(|&(_, p, n)| (p, n)).collect();
            Some(self.store.submit_read(&to_fetch)?)
        };
        Ok(CachedReadTicket {
            results,
            missing,
            ticket,
            hint,
            leaf,
        })
    }

    /// Waits for an in-flight read and returns one image per region, in
    /// submission order. Every device-fetched image is verified against the
    /// checksum sidecar, then admitted to its class as the device filled it —
    /// the cache and the caller share it — except region-class images of a
    /// `Scan` read, which bypass admission.
    pub fn complete_read(&self, ticket: CachedReadTicket) -> IoResult<Vec<PageImage>> {
        let CachedReadTicket {
            mut results,
            missing,
            ticket,
            hint,
            leaf,
        } = ticket;
        if let Some(ticket) = ticket {
            let fetched = self.store.complete_read(ticket)?;
            for (&(i, first, n), mut image) in missing.iter().zip(fetched) {
                self.integrity.verify(&self.store, first, n, &mut image)?;
                results[i] = Some(image);
            }
            let mut victims = Vec::new();
            {
                let mut caches = self.caches.lock();
                for &(i, first, n) in &missing {
                    if let (Some(class), AccessHint::Point) = caches.route(n, hint, leaf) {
                        // An admission evicts about one entry: size the list
                        // for the batch at the first one, not by doubling.
                        if victims.capacity() == 0 {
                            victims.reserve_exact(missing.len());
                        }
                        let image = results[i].as_ref().expect("fetched above");
                        class.admit(first, n, PageImage::clone(image), &mut victims);
                    }
                }
            }
            self.write_back(victims)?;
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("hit at submission or fetched above"))
            .collect())
    }

    /// Locks the cache for a walk over resident single pages: no I/O, no
    /// admission, only hits. Every read and write of the store takes the same
    /// lock, so drop the guard before falling back to one.
    pub fn resident_pages(&self) -> ResidentPages<'_> {
        ResidentPages {
            caches: self.caches.lock(),
        }
    }

    /// Reads one page through the cache.
    pub fn read_page(&self, page: PageId) -> IoResult<PageImage> {
        Ok(self.read_regions(&[(page, 1)])?.pop().expect("one image per region"))
    }

    /// Reads many pages through the cache; the missing ones are fetched with a
    /// single psync call. Results are returned in the order of `pages`.
    pub fn read_pages(&self, pages: &[PageId]) -> IoResult<Vec<PageImage>> {
        self.read_regions(&pages.iter().map(|&p| (p, 1)).collect::<Vec<_>>())
    }

    /// Reads several regions through the cache as `Point` accesses, fetching
    /// the misses with a single psync call.
    pub fn read_regions(&self, regions: &[(PageId, u64)]) -> IoResult<Vec<PageImage>> {
        self.complete_read(self.submit_read(regions, AccessHint::Point)?)
    }

    // ----------------------------------------------------------- the write path --

    /// Sends images to the device, recording their checksums first: the bytes
    /// are captured at submission and this is the last moment they are in
    /// hand. A completion failure leaves the device state unknown either way —
    /// the stale checksum then makes the next read of the range fail
    /// verification, which is the conservative outcome.
    fn submit_to_device(&self, images: &[(PageId, PageImage)]) -> IoResult<WriteTicket> {
        for (first, image) in images {
            self.integrity.record(*first, image, self.page_size());
        }
        self.store.submit_write(images)
    }

    /// Writes a call's dirty victims back, in eviction order, as one batch,
    /// then hands every victim's image to this thread's spares
    /// ([`pio::recycle_image`] keeps only those no reader holds): the next
    /// miss on this thread reads into one of them instead of allocating.
    fn write_back(&self, victims: Vec<Evicted>) -> IoResult<()> {
        // Collected from a borrow, not in place: a list with no dirty victim
        // (every read's) must cost no reallocation of `victims`.
        let dirty: Vec<(PageId, PageImage)> = victims
            .iter()
            .filter(|v| v.dirty)
            .map(|v| (v.page, PageImage::clone(&v.data)))
            .collect();
        if !dirty.is_empty() {
            self.store.complete_write(self.submit_to_device(&dirty)?)?;
        }
        drop(dirty);
        victims.into_iter().for_each(|v| pio::recycle_image(v.data));
        Ok(())
    }

    /// Submits a batched write of `(first_page, image)` pairs, each image a
    /// whole number of pages. Cached copies the images overlap are dropped
    /// first (the coherence rule of the [module docs](self)). One-page images
    /// then follow the [`WritePolicy`]: write-back installs them dirty and
    /// sends nothing; write-through sends them with the call's one device
    /// batch and installs them once that batch has succeeded — so a call that
    /// carries page images completes at submission. Multi-page images always
    /// go to the device and are never installed; a call of only those stays
    /// in flight until [`CachedStore::complete_write`].
    ///
    /// The images are shared, never copied: the device stack is handed each
    /// one as it is ([`PageStore::submit_write`]), and the page class
    /// installs the very image that went to the device — one allocation per
    /// written page, the caller's. A caller must not change an image after
    /// handing it in (an `Arc` it still holds is shared, so
    /// [`std::sync::Arc::get_mut`] refuses anyway).
    ///
    /// Ordering: the simulated backends apply the data at submission, so a read
    /// issued while the write is in flight sees the new bytes. The real-file
    /// backend gives **no** order between an in-flight write and a later read —
    /// callers must not read pages overlapped by a write they have not completed
    /// yet (the tree's pipelines only overlap batches on disjoint pages).
    pub fn submit_write(&self, images: &[(PageId, PageImage)]) -> IoResult<CachedWriteTicket> {
        let page_size = self.page_size();
        let is_page = |image: &PageImage| image.len() == page_size;
        {
            let mut caches = self.caches.lock();
            for (first, image) in images {
                let n = (image.len() / page_size) as u64;
                if let Some(regions) = caches.regions.as_mut() {
                    regions.invalidate_range(*first, n);
                }
                if !is_page(image) {
                    caches.pages.invalidate_range(*first, n);
                }
            }
        }
        let keep_dirty = self.policy == WritePolicy::WriteBack;
        let regions_only: Vec<(PageId, PageImage)>;
        let to_device = if keep_dirty {
            regions_only = images.iter().filter(|(_, d)| !is_page(d)).cloned().collect();
            &regions_only[..]
        } else {
            images
        };
        let mut pending = match to_device {
            [] => None,
            _ => Some(self.submit_to_device(to_device)?),
        };
        if images.iter().any(|(_, d)| is_page(d)) {
            if let Some(ticket) = pending.take() {
                self.store.complete_write(ticket)?;
            }
            let mut victims = Vec::new();
            {
                let mut caches = self.caches.lock();
                for (page, image) in images.iter().filter(|(_, d)| is_page(d)) {
                    caches
                        .pages
                        .install(*page, 1, PageImage::clone(image), keep_dirty, &mut victims);
                }
            }
            self.write_back(victims)?;
        }
        Ok(CachedWriteTicket { pending })
    }

    /// Waits for an in-flight write to become durable.
    pub fn complete_write(&self, ticket: CachedWriteTicket) -> IoResult<()> {
        ticket.pending.map_or(Ok(()), |t| self.store.complete_write(t))
    }

    /// Writes one page (or region) image.
    pub fn write_page(&self, page: PageId, image: PageImage) -> IoResult<()> {
        self.write_pages(&[(page, image)])
    }

    /// Writes many page or region images; everything bound for the device
    /// goes in a single psync call.
    pub fn write_pages(&self, images: &[(PageId, PageImage)]) -> IoResult<()> {
        self.complete_write(self.submit_write(images)?)
    }

    // -------------------------------------------------------------- maintenance --

    /// Flushes every dirty page to the store, in ascending page order, as one
    /// psync call — the checkpoint / shutdown path of the write-back policy.
    pub fn flush(&self) -> IoResult<()> {
        let dirty = self.caches.lock().pages.take_dirty();
        if dirty.is_empty() {
            return Ok(());
        }
        self.store.complete_write(self.submit_to_device(&dirty)?)
    }

    /// Drops every cached entry of both classes without writing anything
    /// (used between experiment phases and by crash simulation to start from
    /// a cold cache).
    pub fn drop_cache(&self) {
        let mut caches = self.caches.lock();
        caches.pages.clear();
        if let Some(regions) = caches.regions.as_mut() {
            regions.clear();
        }
    }

    /// Forgets every recorded page checksum (the scrub cursor resets with
    /// them; the cumulative [`IntegrityStats`] survive). The sidecar is
    /// process-volatile state: a crash loses it, so restart simulation must
    /// too — after a torn or dropped write, the device legitimately holds
    /// *older* bytes than the checksum recorded at submission, and keeping
    /// the stale entry would indict pages the WAL replay is about to make
    /// consistent anyway. Tracking restarts from scratch as recovery and new
    /// writes re-record.
    pub fn reset_integrity(&self) {
        self.integrity.reset();
    }

    /// Resizes the page class, writing back any dirty entries that no longer fit.
    /// Used by the experiments that sweep the pool size over one loaded index.
    pub fn resize_pool(&self, capacity_pages: u64) -> IoResult<()> {
        let mut victims = Vec::new();
        self.caches.lock().pages.resize(capacity_pages, &mut victims);
        self.write_back(victims)
    }

    /// One incremental scrub step: reads back and verifies up to `max_pages`
    /// tracked pages from the scrub cursor (one psync batch), wrapping to the
    /// lowest page when the end of the tracked set is reached. A mismatch is
    /// re-read once; a *persistent* mismatch is counted as rot and — when the
    /// page class still holds a copy that verifies — **healed** by rewriting
    /// that copy to the device. No reader made that lookup, so it counts no
    /// pool hit or miss and leaves recency alone. Unhealable rot keeps its
    /// recorded checksum, so a foreground read of the page still fails
    /// verification rather than serving bad bytes. Designed to ride a
    /// maintenance tick: each call does a bounded slice of work off the
    /// foreground path.
    pub fn scrub_step(&self, max_pages: usize) -> IoResult<ScrubReport> {
        let Some((batch, wrapped)) = self.integrity.next_scrub_batch(max_pages) else {
            return Ok(ScrubReport {
                wrapped: true,
                ..ScrubReport::default()
            });
        };
        let images = self.store.read_regions(&batch)?;
        let mut report = ScrubReport {
            scanned: batch.len(),
            wrapped,
            ..ScrubReport::default()
        };
        for ((page, _), image) in batch.into_iter().zip(images) {
            // Judge against the checksum recorded *now* — the page may have
            // been rewritten (or freed) since the batch was selected.
            let Some(expected) = self.integrity.expected(page) else {
                continue;
            };
            if page_checksum(&image) == expected {
                continue;
            }
            self.integrity.count(|s| s.corruption_detected += 1);
            let reread = self.store.read_page(page)?;
            if page_checksum(&reread) == expected {
                self.integrity.count(|s| s.corruption_recovered += 1);
                continue;
            }
            // Persistent rot. Heal from a cached copy when one verifies.
            self.integrity.count(|s| s.scrub_corruptions += 1);
            report.corrupt += 1;
            let cached = self.caches.lock().pages.peek(page);
            if let Some(copy) = cached {
                if page_checksum(&copy) == expected {
                    self.store.write_page(page, copy)?;
                    self.integrity.count(|s| s.scrub_healed += 1);
                    report.healed += 1;
                }
            }
        }
        self.integrity.count(|s| s.scrubbed_pages += report.scanned as u64);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio::SimPsyncIo;
    use ssd_sim::DeviceProfile;
    use std::sync::Arc;

    fn cached(policy: WritePolicy, pool_pages: u64) -> CachedStore {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 256 * 1024 * 1024));
        let store = PageStore::new(io, 4096);
        CachedStore::new(store, pool_pages, policy)
    }

    /// One blocking region read with the given hint.
    fn read_region(c: &CachedStore, first: PageId, n: u64, hint: AccessHint) -> IoResult<PageImage> {
        Ok(c.complete_read(c.submit_read(&[(first, n)], hint)?)?.pop().unwrap())
    }

    fn point_region(c: &CachedStore, first: PageId, n: u64) -> Vec<u8> {
        read_region(c, first, n, AccessHint::Point).unwrap().to_vec()
    }

    #[test]
    fn read_through_and_hit() {
        let c = cached(WritePolicy::WriteThrough, 16);
        let p = c.allocate();
        c.write_page(p, vec![7u8; 4096].into()).unwrap();
        let io_before = c.store().stats().page_reads;
        assert_eq!(c.read_page(p).unwrap()[0], 7);
        assert_eq!(c.store().stats().page_reads, io_before, "should be a pool hit");
        assert!(c.pool_stats().hits >= 1);
    }

    #[test]
    fn write_back_defers_io_until_eviction_or_flush() {
        let c = cached(WritePolicy::WriteBack, 2);
        let p1 = c.allocate();
        let p2 = c.allocate();
        let p3 = c.allocate();
        c.write_page(p1, vec![1u8; 4096].into()).unwrap();
        c.write_page(p2, vec![2u8; 4096].into()).unwrap();
        assert_eq!(c.store().stats().page_writes, 0, "write-back: nothing written yet");
        // Third write evicts the LRU dirty page → one write-back.
        c.write_page(p3, vec![3u8; 4096].into()).unwrap();
        assert_eq!(c.store().stats().page_writes, 1);
        c.flush().unwrap();
        // Remaining two dirty pages written by the flush.
        assert_eq!(c.store().stats().page_writes, 3);
        // All data must be durable and correct.
        c.drop_cache();
        assert_eq!(c.read_page(p1).unwrap()[0], 1);
        assert_eq!(c.read_page(p2).unwrap()[0], 2);
        assert_eq!(c.read_page(p3).unwrap()[0], 3);
    }

    #[test]
    fn write_through_writes_immediately() {
        let c = cached(WritePolicy::WriteThrough, 4);
        let p = c.allocate();
        c.write_page(p, vec![9u8; 4096].into()).unwrap();
        assert_eq!(c.store().stats().page_writes, 1);
    }

    #[test]
    fn batched_reads_fetch_only_misses() {
        let c = cached(WritePolicy::WriteThrough, 8);
        let pages: Vec<PageId> = (0..6).map(|_| c.allocate()).collect();
        for &p in &pages {
            c.write_page(p, vec![p as u8; 4096].into()).unwrap();
        }
        c.drop_cache();
        // warm up half of them
        c.read_page(pages[0]).unwrap();
        c.read_page(pages[1]).unwrap();
        c.read_page(pages[2]).unwrap();
        let before = c.store().stats().page_reads;
        let all = c.read_pages(&pages).unwrap();
        for (i, data) in all.iter().enumerate() {
            assert_eq!(data[0], pages[i] as u8);
        }
        assert_eq!(
            c.store().stats().page_reads - before,
            3,
            "only the 3 cold pages hit the device"
        );
    }

    #[test]
    fn region_round_trip() {
        let c = cached(WritePolicy::WriteThrough, 16);
        let first = c.allocate_contiguous(4);
        let img: Vec<u8> = (0..4 * 4096u32).map(|i| (i % 253) as u8).collect();
        c.write_page(first, img.as_slice().into()).unwrap();
        assert_eq!(point_region(&c, first, 4), img);
        // Regions never enter the page class and the region class is disabled,
        // so a second read hits the device again — without counting anything.
        let before = c.store().stats().page_reads;
        assert_eq!(point_region(&c, first, 4), img);
        assert_eq!(c.store().stats().page_reads, before + 4);
        assert_eq!(c.leaf_cache_stats(), CacheStats::default());
        assert_eq!(c.pool_stats().misses, 0);
    }

    /// A leaf piece goes to the region class whatever its length, and a hit
    /// there needs the same `(first, pages)`: a read of the whole region — a
    /// `Scan` one above all, which admits nothing — is never handed the
    /// resident one-segment entry that starts where the region starts, and
    /// an admission of either shape drops the other. The page class never
    /// sees a segment.
    #[test]
    fn a_whole_region_read_is_never_handed_a_segment_entry() {
        let c = cached(WritePolicy::WriteThrough, 16);
        c.set_leaf_cache(16);
        let leaf = c.allocate_contiguous(2);
        let image: Vec<u8> = (0..2 * 4096u32).map(|i| (i / 4096 + 1) as u8).collect();
        c.write_page(leaf, image.as_slice().into()).unwrap();
        let segment = |first: PageId| {
            let ticket = c.submit_leaf_read(&[(first, 1)], AccessHint::Point).unwrap();
            c.complete_read(ticket).unwrap().pop().unwrap()
        };
        let device_reads = || c.store().stats().page_reads;

        assert_eq!(segment(leaf)[..], image[..4096]);
        assert_eq!(segment(leaf + 1)[..], image[4096..]);
        assert_eq!((c.leaf_cache_stats().misses, c.pool_stats().misses), (2, 0));
        let before = device_reads();
        assert_eq!(segment(leaf)[..], image[..4096]);
        assert_eq!(
            (device_reads(), c.leaf_cache_stats().hits),
            (before, 1),
            "a segment hit"
        );

        // Both segments resident: the scan fetches the region whole.
        let scanned = read_region(&c, leaf, 2, AccessHint::Scan).unwrap();
        assert_eq!(scanned[..], image[..], "a scan was handed a one-page segment");
        assert_eq!(device_reads(), before + 2);
        assert_eq!(c.leaf_cache_stats().scan_bypasses, 1);
        assert_eq!(segment(leaf + 1)[..], image[4096..], "a scan admits nothing");
        assert_eq!(device_reads(), before + 2);

        // A point read of the region admits it over both segments, and a
        // segment read admits the segment over the region.
        assert_eq!(point_region(&c, leaf, 2), image);
        assert_eq!(device_reads(), before + 4);
        assert_eq!(point_region(&c, leaf, 2), image);
        assert_eq!(segment(leaf + 1)[..], image[4096..]);
        assert_eq!(device_reads(), before + 5, "the region hit, the segment missed");
        assert_eq!(point_region(&c, leaf, 2), image);
        assert_eq!(device_reads(), before + 7, "the segment's admission dropped the region");
        assert_eq!(
            c.pool_stats(),
            CacheStats::default(),
            "no leaf piece went to the page class"
        );
    }

    #[test]
    fn region_writes_invalidate_cached_pages() {
        let c = cached(WritePolicy::WriteThrough, 16);
        let first = c.allocate_contiguous(2);
        let old = vec![1u8; 2 * 4096];
        c.write_page(first, old.into()).unwrap();
        // Cache the second page individually.
        assert_eq!(c.read_page(first + 1).unwrap()[0], 1);
        // Overwrite the whole region; the cached page copy must not survive.
        let new = vec![9u8; 2 * 4096];
        c.write_page(first, new.into()).unwrap();
        assert_eq!(c.read_page(first + 1).unwrap()[0], 9);
    }

    #[test]
    fn page_writes_are_visible_to_region_reads() {
        let c = cached(WritePolicy::WriteThrough, 16);
        let first = c.allocate_contiguous(2);
        c.write_page(first, vec![3u8; 2 * 4096].into()).unwrap();
        c.write_page(first + 1, vec![7u8; 4096].into()).unwrap();
        let region = point_region(&c, first, 2);
        assert_eq!(region[4096], 7, "region read must see the page write");
        assert_eq!(region[0], 3);
    }

    #[test]
    fn read_regions_batches_misses() {
        let c = cached(WritePolicy::WriteThrough, 64);
        let a = c.allocate_contiguous(2);
        let b = c.allocate_contiguous(2);
        let da = vec![1u8; 2 * 4096];
        let db = vec![2u8; 2 * 4096];
        c.write_pages(&[(a, da.as_slice().into()), (b, db.as_slice().into())])
            .unwrap();
        c.drop_cache();
        let before = c.store().stats().read_batches;
        let out = c.read_regions(&[(a, 2), (b, 2)]).unwrap();
        assert_eq!(out[0][..], da[..]);
        assert_eq!(out[1][..], db[..]);
        assert_eq!(
            c.store().stats().read_batches - before,
            1,
            "both regions in one psync call"
        );
    }

    #[test]
    fn free_drops_cached_copy() {
        let c = cached(WritePolicy::WriteBack, 4);
        let p = c.allocate();
        c.write_page(p, vec![5u8; 4096].into()).unwrap();
        c.free(p);
        c.flush().unwrap();
        assert_eq!(
            c.store().stats().page_writes,
            0,
            "freed dirty page must not be written back"
        );
    }

    #[test]
    fn leaf_cache_serves_repeat_point_reads_without_device_io() {
        let c = cached(WritePolicy::WriteThrough, 16);
        c.set_leaf_cache(16);
        let first = c.allocate_contiguous(4);
        let img: Vec<u8> = (0..4 * 4096u32).map(|i| (i % 251) as u8).collect();
        c.write_page(first, img.as_slice().into()).unwrap();
        assert_eq!(point_region(&c, first, 4), img);
        let before = c.store().stats().page_reads;
        assert_eq!(point_region(&c, first, 4), img);
        assert_eq!(
            c.store().stats().page_reads,
            before,
            "second point read must hit the leaf cache"
        );
        assert_eq!(c.leaf_cache_stats().hits, 1);
        // Batched region reads hit too: the whole batch resolves at submission.
        let out = c.read_regions(&[(first, 4)]).unwrap();
        assert_eq!(out[0][..], img[..]);
        assert_eq!(c.store().stats().page_reads, before);
    }

    #[test]
    fn scan_hinted_reads_bypass_admission_but_hit_residents() {
        let c = cached(WritePolicy::WriteThrough, 16);
        c.set_leaf_cache(16);
        let a = c.allocate_contiguous(2);
        let b = c.allocate_contiguous(2);
        c.write_page(a, vec![1u8; 2 * 4096].into()).unwrap();
        c.write_page(b, vec![2u8; 2 * 4096].into()).unwrap();
        // Scan miss: fetched but not admitted.
        read_region(&c, a, 2, AccessHint::Scan).unwrap();
        assert_eq!(c.leaf_cache_stats().scan_bypasses, 1);
        let before = c.store().stats().page_reads;
        read_region(&c, a, 2, AccessHint::Scan).unwrap();
        assert_eq!(c.store().stats().page_reads, before + 2, "scan read was not admitted");
        // Point read admits; a later scan then hits the resident copy.
        point_region(&c, b, 2);
        let before = c.store().stats().page_reads;
        read_region(&c, b, 2, AccessHint::Scan).unwrap();
        assert_eq!(c.store().stats().page_reads, before, "scan hits resident entries");
        // The page class ignores the hint: a scan-hinted single page is
        // admitted like any other.
        let p = c.allocate();
        c.store().write_page(p, vec![3u8; 4096].into()).unwrap();
        read_region(&c, p, 1, AccessHint::Scan).unwrap();
        let before = c.store().stats().page_reads;
        read_region(&c, p, 1, AccessHint::Scan).unwrap();
        assert_eq!(c.store().stats().page_reads, before, "single pages are always admitted");
        assert_eq!(c.leaf_cache_stats().scan_bypasses, 2, "and never count as bypasses");
    }

    #[test]
    fn leaf_cache_is_invalidated_by_every_write_path() {
        let c = cached(WritePolicy::WriteThrough, 16);
        c.set_leaf_cache(32);
        let r = c.allocate_contiguous(2);
        c.write_page(r, vec![1u8; 2 * 4096].into()).unwrap();
        point_region(&c, r, 2); // admit
                                // A single-page write *inside* the region (bupdate's segment append).
        c.write_page(r + 1, vec![9u8; 4096].into()).unwrap();
        let img = point_region(&c, r, 2);
        assert_eq!(img[4096], 9, "stale region served after page write");
        // A region overwrite is written around the cache, not installed.
        c.write_page(r, vec![7u8; 2 * 4096].into()).unwrap();
        let before = c.store().stats().page_reads;
        assert_eq!(point_region(&c, r, 2)[0], 7);
        assert_eq!(c.store().stats().page_reads, before + 2, "region writes never install");
        // A batched page write.
        let data = vec![5u8; 4096];
        c.write_pages(&[(r, data.into())]).unwrap();
        assert_eq!(point_region(&c, r, 2)[0], 5);
        // Freeing a page inside the region.
        c.free(r + 1);
        let before = c.store().stats().page_reads;
        point_region(&c, r, 2);
        assert_eq!(
            c.store().stats().page_reads,
            before + 2,
            "free must drop the covering region"
        );
        // drop_cache empties it.
        c.drop_cache();
        let before = c.store().stats().page_reads;
        point_region(&c, r, 2);
        assert_eq!(
            c.store().stats().page_reads,
            before + 2,
            "drop_cache must clear leaf regions"
        );
    }

    #[test]
    fn zero_sized_pool_still_works() {
        let c = cached(WritePolicy::WriteThrough, 0);
        let p = c.allocate();
        c.write_page(p, vec![4u8; 4096].into()).unwrap();
        assert_eq!(c.read_page(p).unwrap()[0], 4);
        assert_eq!(c.pool_stats().hits, 0);
        assert_eq!(c.pool_stats().misses, 1, "a zero-budget page class still counts misses");
    }

    #[test]
    fn a_mixed_read_batch_routes_by_length_and_rides_one_device_batch() {
        let c = cached(WritePolicy::WriteThrough, 16);
        c.set_leaf_cache(16);
        let r = c.allocate_contiguous(2);
        let p = c.allocate();
        c.write_page(r, vec![1u8; 2 * 4096].into()).unwrap();
        c.write_page(p, vec![2u8; 4096].into()).unwrap();
        c.drop_cache();
        let before = c.store().stats();
        let out = c.read_regions(&[(r, 2), (p, 1)]).unwrap();
        assert_eq!((out[0][0], out[1][0]), (1, 2));
        let after = c.store().stats();
        assert_eq!(
            after.read_batches - before.read_batches,
            1,
            "misses of both classes share a batch"
        );
        assert_eq!(after.page_reads - before.page_reads, 3);
        assert_eq!((c.pool_stats().misses, c.leaf_cache_stats().misses), (1, 1));
        // Each was admitted to its own class: the repeat is all hits.
        c.read_regions(&[(r, 2), (p, 1)]).unwrap();
        assert_eq!(c.store().stats().page_reads, after.page_reads);
        assert_eq!((c.pool_stats().hits, c.leaf_cache_stats().hits), (1, 1));
    }

    #[test]
    fn a_mixed_write_batch_installs_its_pages_and_writes_around_its_regions() {
        let c = cached(WritePolicy::WriteThrough, 16);
        c.set_leaf_cache(16);
        let r = c.allocate_contiguous(2);
        let p = c.allocate();
        let before = c.store().stats().write_batches;
        c.write_pages(&[(r, vec![1u8; 2 * 4096].into()), (p, vec![2u8; 4096].into())])
            .unwrap();
        assert_eq!(
            c.store().stats().write_batches - before,
            1,
            "one device batch for the call"
        );
        let reads = c.store().stats().page_reads;
        assert_eq!(c.read_page(p).unwrap()[0], 2);
        assert_eq!(c.store().stats().page_reads, reads, "the page image was installed");
        assert_eq!(point_region(&c, r, 2)[0], 1);
        assert_eq!(c.store().stats().page_reads, reads + 2, "the region image was not");
    }

    #[test]
    fn write_back_sends_regions_to_the_device_and_keeps_pages_dirty() {
        let c = cached(WritePolicy::WriteBack, 4);
        let r = c.allocate_contiguous(2);
        let p = c.allocate();
        c.write_pages(&[(r, vec![1u8; 2 * 4096].into()), (p, vec![2u8; 4096].into())])
            .unwrap();
        assert_eq!(c.store().stats().page_writes, 2, "only the region reached the device");
        c.flush().unwrap();
        assert_eq!(c.store().stats().page_writes, 3);
    }

    /// Rot the device copy of `page` behind the sidecar's back.
    fn rot(c: &CachedStore, page: PageId, byte: usize) {
        let mut img = c.store().read_page(page).unwrap();
        Arc::make_mut(&mut img)[byte] ^= 0x40;
        c.store().write_page(page, img).unwrap();
    }

    #[test]
    fn persistent_rot_surfaces_as_corruption_not_bad_data() {
        let c = cached(WritePolicy::WriteThrough, 4);
        let p = c.allocate();
        c.write_page(p, vec![7u8; 4096].into()).unwrap();
        c.drop_cache();
        rot(&c, p, 100);
        let err = c.read_page(p).unwrap_err();
        match err {
            pio::IoError::Corruption { offset, len } => {
                assert_eq!(offset, p * 4096);
                assert_eq!(len, 4096);
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
        let stats = c.integrity_stats();
        assert_eq!(stats.corruption_detected, 1);
        assert_eq!(stats.corruption_recovered, 0);
    }

    #[test]
    fn rewriting_a_rotted_page_clears_the_fault() {
        let c = cached(WritePolicy::WriteThrough, 4);
        let p = c.allocate();
        c.write_page(p, vec![7u8; 4096].into()).unwrap();
        c.drop_cache();
        rot(&c, p, 0);
        assert!(c.read_page(p).is_err());
        c.write_page(p, vec![8u8; 4096].into()).unwrap();
        c.drop_cache();
        assert_eq!(c.read_page(p).unwrap()[0], 8);
    }

    #[test]
    fn region_reads_verify_checksums_too() {
        let c = cached(WritePolicy::WriteThrough, 4);
        let first = c.allocate_contiguous(3);
        c.write_page(first, vec![3u8; 3 * 4096].into()).unwrap();
        rot(&c, first + 1, 17);
        let err = read_region(&c, first, 3, AccessHint::Point).unwrap_err();
        match err {
            pio::IoError::Corruption { offset, .. } => {
                assert_eq!(offset, (first + 1) * 4096, "should name the rotted page")
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
    }

    #[test]
    fn write_back_records_checksums_when_pages_reach_the_device() {
        let c = cached(WritePolicy::WriteBack, 4);
        let p = c.allocate();
        c.write_page(p, vec![5u8; 4096].into()).unwrap();
        assert_eq!(c.tracked_pages(), 0, "dirty page not on the device yet");
        c.flush().unwrap();
        assert_eq!(c.tracked_pages(), 1);
        c.drop_cache();
        rot(&c, p, 9);
        assert!(matches!(c.read_page(p), Err(pio::IoError::Corruption { .. })));
    }

    #[test]
    fn free_drops_the_checksum_entry() {
        let c = cached(WritePolicy::WriteThrough, 4);
        let p = c.allocate();
        c.write_page(p, vec![1u8; 4096].into()).unwrap();
        assert_eq!(c.tracked_pages(), 1);
        c.free(p);
        assert_eq!(c.tracked_pages(), 0);
    }

    /// A page id at or past the allocation high-water mark can only come from
    /// a rotted pointer: the read is `Corruption` before the id becomes an
    /// offset — including ids whose offset would wrap onto a real page.
    #[test]
    fn reads_past_the_high_water_mark_are_corruption() {
        let c = cached(WritePolicy::WriteThrough, 4);
        let first = c.allocate_contiguous(3);
        c.write_pages(&[(first, vec![7u8; 3 * 4096].into())]).unwrap();
        let high_water = c.store().high_water_pages();
        assert_eq!(high_water, 3);
        for (page, n) in [
            (3, 1),
            (2, 2),
            (0, 4),
            (u64::MAX, 1),
            (1 << 52, 1),
            (1 << 52 | 1, 2),
            (1, u64::MAX),
        ] {
            for hint in [AccessHint::Point, AccessHint::Scan] {
                assert!(
                    matches!(
                        c.submit_read(&[(0, 1), (page, n)], hint),
                        Err(pio::IoError::Corruption { .. })
                    ),
                    "region ({page}, {n}) must be refused"
                );
            }
        }
        assert_eq!(c.read_regions(&[(0, 3)]).unwrap()[0][..], vec![7u8; 3 * 4096][..]);
    }

    #[test]
    fn scrub_detects_rot_and_heals_from_the_pool() {
        let c = cached(WritePolicy::WriteThrough, 8);
        let pages: Vec<PageId> = (0..4).map(|_| c.allocate()).collect();
        for &p in &pages {
            c.write_page(p, vec![p as u8 + 1; 4096].into()).unwrap();
        }
        // The pool still holds clean copies of everything; rot one device copy.
        rot(&c, pages[2], 40);
        let pool = c.pool_stats();
        let mut scanned = 0;
        let mut healed = 0;
        loop {
            let r = c.scrub_step(2).unwrap();
            scanned += r.scanned;
            healed += r.healed;
            if r.wrapped {
                break;
            }
        }
        assert_eq!(scanned, 4, "one full cycle visits every tracked page");
        assert_eq!(healed, 1);
        assert_eq!(c.pool_stats(), pool, "the heal lookup is no pool access");
        let stats = c.integrity_stats();
        assert_eq!(stats.scrub_corruptions, 1);
        assert_eq!(stats.scrub_healed, 1);
        assert_eq!(stats.scrubbed_pages, 4);
        // The heal must have actually fixed the device copy.
        c.drop_cache();
        assert_eq!(c.read_page(pages[2]).unwrap()[0], pages[2] as u8 + 1);
    }

    #[test]
    fn scrub_flags_unhealable_rot_but_keeps_the_checksum() {
        let c = cached(WritePolicy::WriteThrough, 4);
        let p = c.allocate();
        c.write_page(p, vec![6u8; 4096].into()).unwrap();
        c.drop_cache(); // no pooled copy → nothing to heal from
        rot(&c, p, 0);
        let pool = c.pool_stats();
        let r = c.scrub_step(8).unwrap();
        assert_eq!(r.corrupt, 1);
        assert_eq!(r.healed, 0);
        assert_eq!(c.pool_stats(), pool, "the heal lookup is no pool access");
        // A foreground read must still refuse to serve the bad bytes.
        assert!(matches!(c.read_page(p), Err(pio::IoError::Corruption { .. })));
    }

    #[test]
    fn scrub_on_an_empty_store_is_a_no_op() {
        let c = cached(WritePolicy::WriteThrough, 4);
        let r = c.scrub_step(16).unwrap();
        assert_eq!(r.scanned, 0);
        assert!(r.wrapped);
    }

    /// A page write installs the very image its caller handed in — the one
    /// the device stack was given — under either policy, and the device ends
    /// up with its bytes.
    #[test]
    fn a_page_write_installs_the_callers_image() {
        for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
            let c = cached(policy, 4);
            let p = c.allocate();
            let image: PageImage = vec![3u8; 4096].into();
            c.write_page(p, PageImage::clone(&image)).unwrap();
            assert!(Arc::ptr_eq(&c.read_page(p).unwrap(), &image), "{policy:?}");
            c.flush().unwrap();
            assert_eq!(c.store().read_page(p).unwrap(), image, "{policy:?}");
        }
    }

    /// Hits are shared, writes replace: an image a read handed out is a
    /// snapshot. Nothing that later happens to the page — a page write, a
    /// region write over it, a free, an eviction, `drop_cache` — changes the
    /// bytes the reader holds, and the next read sees the new bytes.
    #[test]
    fn shared_images_never_change_under_a_reader() {
        for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
            let c = cached(policy, 4);
            c.set_leaf_cache(8);
            let filled = |byte: u8, pages: usize| PageImage::from(vec![byte; pages * 4096]);
            let all = |image: &[u8], byte: u8| image.iter().all(|&b| b == byte);

            // A page: two hits share one image; a write installs another.
            let p = c.allocate();
            c.write_page(p, filled(1, 1)).unwrap();
            let held = c.read_page(p).unwrap();
            assert!(
                Arc::ptr_eq(&held, &c.read_page(p).unwrap()),
                "a hit is a shared reference"
            );
            c.write_page(p, filled(2, 1)).unwrap();
            assert!(all(&held, 1), "{policy:?}: page write under a held image");
            assert!(all(&c.read_page(p).unwrap(), 2));

            // A region: the miss admits the image it returns; a page write
            // inside it and a region write over it both leave it alone.
            let r = c.allocate_contiguous(2);
            c.write_page(r, filled(3, 2)).unwrap();
            let held_region = read_region(&c, r, 2, AccessHint::Point).unwrap();
            assert!(Arc::ptr_eq(
                &held_region,
                &read_region(&c, r, 2, AccessHint::Point).unwrap()
            ));
            c.write_page(r + 1, filled(4, 1)).unwrap();
            c.flush().unwrap();
            assert!(all(&held_region, 3), "{policy:?}: page write inside a held region");
            let reread = point_region(&c, r, 2);
            assert!(all(&reread[..4096], 3) && all(&reread[4096..], 4));
            c.write_page(r, filled(5, 2)).unwrap();
            assert!(all(&held_region, 3), "{policy:?}: region write over a held region");
            assert!(all(&point_region(&c, r, 2), 5));

            // Spares: misses past the region class (4 regions) evict the held
            // region and images nobody holds; the misses after them read into
            // the unheld ones (each miss takes a spare, its admission's
            // eviction gives one back), never into the held one.
            let held_region = read_region(&c, r, 2, AccessHint::Point).unwrap();
            let others: Vec<PageId> = (0..8).map(|_| c.allocate_contiguous(2)).collect();
            for &o in &others {
                c.write_page(o, filled(6, 2)).unwrap();
            }
            let burst = || {
                for &o in &others {
                    let image = read_region(&c, o, 2, AccessHint::Point).unwrap();
                    assert!(
                        all(&image, 6),
                        "{policy:?}: a miss into a spare reads the device's bytes"
                    );
                }
            };
            burst();
            let spares = pio::spare_images();
            assert!(
                (1..64).contains(&spares),
                "{policy:?}: {spares} spares after the first burst"
            );
            burst();
            assert_eq!(
                pio::spare_images(),
                spares,
                "{policy:?}: the second burst read into spares"
            );
            assert!(
                all(&held_region, 5),
                "{policy:?}: misses into spares under a held region"
            );

            // Eviction (the pool holds 4 pages), drop_cache and free.
            let held = c.read_page(p).unwrap();
            for _ in 0..6 {
                let other = c.allocate();
                c.write_page(other, filled(9, 1)).unwrap();
            }
            assert!(all(&held, 2), "{policy:?}: eviction under a held image");
            assert!(
                all(&c.read_page(p).unwrap(), 2),
                "{policy:?}: the evicted bytes reached the device"
            );
            let held = c.read_page(p).unwrap();
            c.flush().unwrap();
            c.drop_cache();
            assert!(all(&held, 2), "{policy:?}: drop_cache under a held image");
            assert!(all(&c.read_page(p).unwrap(), 2));
            c.free(p);
            assert!(all(&held, 2), "{policy:?}: free under a held image");
        }
    }

    /// An evicted image goes to this thread's spares once its write-back (if
    /// any) is done — unless a reader holds it — and the next miss reads
    /// into it.
    #[test]
    fn evicted_images_become_spares_after_their_write_back() {
        for policy in [WritePolicy::WriteThrough, WritePolicy::WriteBack] {
            let c = cached(policy, 1);
            let (p, q, r) = (c.allocate(), c.allocate(), c.allocate());
            let base = pio::spare_images();
            c.write_page(p, vec![6u8; 4096].into()).unwrap();
            let held = c.read_page(p).unwrap();
            c.write_page(q, vec![7u8; 4096].into()).unwrap();
            assert_eq!(pio::spare_images(), base, "{policy:?}: a held victim is not kept");
            c.write_page(r, vec![8u8; 4096].into()).unwrap();
            assert_eq!(pio::spare_images(), base + 1, "{policy:?}: an unheld victim is");
            let reread = c.read_page(q).unwrap();
            assert_eq!(
                pio::spare_images(),
                base + 1,
                "{policy:?}: the miss took it, r became one"
            );
            assert!(reread.iter().all(|&b| b == 7) && held.iter().all(|&b| b == 6));
        }
    }

    /// Write-back eviction of a dirty image that a reader also holds writes
    /// the image's bytes — sharing it with a reader did not detach it.
    #[test]
    fn write_back_eviction_of_a_shared_dirty_image_writes_the_right_bytes() {
        let c = cached(WritePolicy::WriteBack, 1);
        let (p, q) = (c.allocate(), c.allocate());
        c.write_page(p, vec![6u8; 4096].into()).unwrap();
        let held = c.read_page(p).unwrap();
        assert_eq!(c.store().stats().page_writes, 0, "still only in the pool");
        c.write_page(q, vec![7u8; 4096].into()).unwrap();
        assert_eq!(c.store().stats().page_writes, 1, "the dirty victim was written back");
        assert!(c.store().read_page(p).unwrap().iter().all(|&b| b == 6));
        assert!(held.iter().all(|&b| b == 6));
        assert_eq!(c.pool_stats().dirty_evictions, 1);
    }
}
