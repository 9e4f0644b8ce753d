//! A page store with one cache in front of it — the component the indexes
//! talk to.
//!
//! [`CachedStore`] composes a [`PageStore`] with the one [`Cache`] of pages,
//! whose entries carry their [`PageClass`] as a tag:
//!
//! * **inner** pages — the internal nodes every descent reads and bupdate's
//!   fence propagation writes — are evicted only when no leaf page is left;
//! * **leaf** pages — of whole leaves, of the single segments a point lookup
//!   of a fenced leaf reads, and of the last segments bupdate reads and
//!   writes — share the rest of the budget as a segmented LRU whose protected
//!   segment holds 4/5 of it, with a scan bypass, so `range_search` streams
//!   cannot evict the point-lookup working set.
//!
//! The budget is `pool_pages` ([`CachedStore::new`], [`CachedStore::resize_pool`])
//! plus the leaf budget ([`CachedStore::set_leaf_cache`]), one count of pages
//! — the paper's buffer of `M − O` pages, swept in Figure 9 and traded off
//! against the OPQ in Figure 11. The leaf budget only adds pages to it: a
//! page's class never depends on either budget.
//!
//! The caller names the [`PageClass`] of what it reads or writes, and that
//! alone decides the class of its pages, never their number: the pages of an
//! internal node are inner, and every page of a leaf — a whole leaf, a
//! lookup's segment, bupdate's last segment — is a leaf page.
//!
//! There is one read path and one write path, both over `(first_page,
//! n_pages)` regions, and a page is a one-page region. Every entry is one
//! page, so a region read probes each of its pages. A read that admits what
//! it fetches sends each page it misses as a one-page request in the call's
//! **one** device batch, and each device-filled image becomes its page's
//! entry; a read that admits nothing — a `Scan` of a region the cache does not
//! hold whole — sends the region as one request.
//! A read hands back the images that tile each region ([`next_region`]). A
//! warm cache therefore automatically reduces the outstanding-I/O level —
//! exactly the behaviour the cost model of Section 3.5 assumes. Writes apply
//! the [`WritePolicy`] to their page images:
//!
//! * the baseline B+-tree and B-link tree use **write-back** (a conventional
//!   no-force buffer manager: dirty nodes are written on eviction), and
//! * the PIO B-tree uses **write-through** (it keeps no dirty buffers; all
//!   node writes happen inside bupdate via psync I/O).
//!
//! A page write replaces its page's entry; any other image drops, at
//! submission, the entries of the pages it covers and is installed nowhere.
//! Every image on its way to the device has its checksums recorded, and every
//! image fetched from it is verified; see [`crate::integrity`].
//!
//! Reads return [`PageImage`]s — shared, immutable images. **Hits are shared,
//! writes replace**: a hit hands out another reference to the image the cache
//! holds (no copy), a miss admits the image the device filled — the very
//! image it returns, never a copy of it — a page write installs the very
//! image its caller handed to the device, and a write, refresh, eviction,
//! free or [`CachedStore::drop_cache`] only ever swaps or drops the cache's
//! own reference. A caller may therefore keep an image as long as it likes
//! (bupdate keeps its Phase-A images as undo pre-images); it is a snapshot of
//! the page at the time of the read. An image the cache lets go of that
//! nobody else holds becomes a spare of the releasing thread's
//! ([`pio::recycle_image`]), which that thread's next miss or encoded page
//! fills instead of allocating.

use crate::cache::{Cache, CacheStats, Evicted, PageClass};
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

/// How a read intends to use the data — decides cache admission of leaf
/// pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessHint {
    /// Point-lookup-style access: cacheable, re-references promote.
    #[default]
    Point,
    /// Sequential-scan access: may hit resident pages but never inserts,
    /// promotes or refreshes recency ([`Cache::scan`]).
    Scan,
}

/// Takes the images of the next region, `pages` pages long, off the front of
/// `tiles` — what [`CachedStore::complete_read`] handed back: one image per
/// page, each from the cache or from its own request, or the one image of a
/// `Scan` of a region read past the cache.
pub fn next_region<'a>(tiles: &mut &'a [PageImage], pages: u64, page_size: usize) -> &'a [PageImage] {
    let n = if tiles[0].len() == page_size { pages as usize } else { 1 };
    let (region, rest) = tiles.split_at(n);
    *tiles = rest;
    region
}

/// An in-flight cache-aware read: hits are captured at submission, the misses
/// travel as one device batch. Redeemed with [`CachedStore::complete_read`].
#[derive(Debug)]
#[must_use = "an in-flight read must be completed to obtain its buffers"]
pub struct CachedReadTicket {
    /// One slot per image handed back: hits are filled at submission, the
    /// rest at completion.
    tiles: Vec<Option<PageImage>>,
    /// `(tile, first page, page count)` of every device request, in batch
    /// order: a page the read admits, or a region a `Scan` reads past the
    /// cache.
    missing: Vec<(usize, PageId, u64)>,
    /// The class the fetched pages are admitted as; `None` for a leaf `Scan`,
    /// which admits nothing.
    admit: Option<PageClass>,
    /// The in-flight device batch for `missing`; `None` when everything hit.
    ticket: Option<ReadTicket>,
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

/// The one cache and the two budgets whose sum it holds.
#[derive(Debug)]
struct Pool {
    cache: Cache,
    pool_pages: u64,
    leaf_pages: u64,
}

/// The cache, held under its lock for a walk over resident internal nodes
/// that does no I/O — see [`CachedStore::resident_pages`].
#[derive(Debug)]
pub struct ResidentPages<'a> {
    pool: MutexGuard<'a, Pool>,
}

impl ResidentPages<'_> {
    /// The image of `page` if the cache holds it, counted and refreshed like
    /// any inner `Point` hit. An absent page counts nothing: the read the
    /// caller falls back to counts its miss.
    pub fn get(&mut self, page: PageId) -> Option<PageImage> {
        self.pool.cache.get_resident(page)
    }
}

/// A [`PageStore`] fronted by the one [`Cache`] (see the [module docs](self)).
#[derive(Debug)]
pub struct CachedStore {
    store: PageStore,
    policy: WritePolicy,
    pool: Mutex<Pool>,
    integrity: Integrity,
}
impl CachedStore {
    /// Creates a cached store with a budget of `capacity_pages` pages, no
    /// leaf pages added to it (see [`CachedStore::set_leaf_cache`]) and the
    /// given write policy.
    pub fn new(store: PageStore, capacity_pages: u64, policy: WritePolicy) -> Self {
        Self {
            store,
            policy,
            pool: Mutex::new(Pool {
                cache: Cache::new(capacity_pages),
                pool_pages: capacity_pages,
                leaf_pages: 0,
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

    /// Sets the leaf budget: `capacity_pages` pages added to the pool's
    /// budget (0 adds none). It changes the size of the one cache, never the
    /// class of a page. Resident entries and counters stay; dirty entries that
    /// no longer fit are written back.
    pub fn set_leaf_cache(&self, capacity_pages: u64) -> IoResult<()> {
        self.resize(|pool| pool.leaf_pages = capacity_pages)
    }

    /// Sets a budget and resizes the cache to the sum, writing back any
    /// dirty entries that no longer fit.
    fn resize(&self, set: impl FnOnce(&mut Pool)) -> IoResult<()> {
        let mut victims = Vec::new();
        {
            let mut pool = self.pool.lock();
            set(&mut pool);
            let pages = pool.pool_pages + pool.leaf_pages;
            pool.cache.resize(pages, &mut victims);
        }
        self.write_back(victims)
    }

    /// Counters of the leaf entries.
    pub fn leaf_cache_stats(&self) -> CacheStats {
        self.pool.lock().cache.stats(PageClass::Leaf)
    }

    /// Counters of the inner entries (a zero budget still counts its
    /// misses).
    pub fn pool_stats(&self) -> CacheStats {
        self.pool.lock().cache.stats(PageClass::Inner)
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

    /// Frees a page, dropping its cached entry and its checksum.
    /// A dirty copy is intentionally discarded — the page no longer belongs
    /// to the caller.
    pub fn free(&self, page: PageId) {
        self.pool.lock().cache.invalidate_page(page);
        self.integrity.forget(page);
        self.store.free(page);
    }

    // ------------------------------------------------------------ the read path --

    /// Submits a cache-aware batched read of `regions`, pages of `class`,
    /// with `hint`, without waiting. Each region probes its pages: an inner
    /// read and a leaf `Point` read take each resident page from the cache
    /// and send each missing page as a one-page request, which they admit; a
    /// leaf `Scan` takes the region from the cache only when every page is
    /// resident, and sends it as one request, admitted nowhere, when not. All
    /// the requests go to the device as one in-flight batch that overlaps
    /// whatever else is outstanding on the backend.
    ///
    /// A region that reaches past the allocation high-water mark was never
    /// written by anyone: the id can only come from a rotted pointer, so the
    /// read is refused as [`IoError::Corruption`] before the id turns into an
    /// offset (where a large enough one would wrap onto another page's bytes,
    /// which no recorded checksum would contradict).
    pub fn submit_read(
        &self,
        regions: &[(PageId, u64)],
        class: PageClass,
        hint: AccessHint,
    ) -> IoResult<CachedReadTicket> {
        let high_water = self.store.high_water_pages();
        if let Some(&(first, n)) = regions.iter().find(|&&(first, n)| n > high_water.saturating_sub(first)) {
            return Err(IoError::Corruption {
                offset: page_offset(first, self.page_size()),
                len: n.saturating_mul(self.page_size() as u64),
            });
        }
        let scan = class == PageClass::Leaf && hint == AccessHint::Scan;
        // At most one image per page, so the slots are allocated once.
        let mut tiles: Vec<Option<PageImage>> = Vec::with_capacity(regions.iter().map(|&(_, n)| n as usize).sum());
        let mut missing: Vec<(usize, PageId, u64)> = Vec::new();
        let mut miss = |tiles: &mut Vec<Option<PageImage>>, first, n| {
            // Sized once, on the first miss: an all-hit read allocates
            // nothing here.
            if missing.capacity() == 0 {
                missing.reserve_exact(tiles.capacity() - tiles.len());
            }
            missing.push((tiles.len(), first, n));
            tiles.push(None);
        };
        {
            let mut pool = self.pool.lock();
            for &(first, n) in regions {
                if scan {
                    match pool.cache.scan(first, n, class) {
                        Some(hits) => tiles.extend(hits.map(Some)),
                        None => miss(&mut tiles, first, n),
                    }
                    continue;
                }
                for page in first..first + n {
                    match pool.cache.get(page, class) {
                        Some(hit) => tiles.push(Some(hit)),
                        None => miss(&mut tiles, page, 1),
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
            tiles,
            missing,
            admit: (!scan).then_some(class),
            ticket,
        })
    }

    /// Waits for an in-flight read and returns the images that tile each
    /// region, region after region in submission order: one per page, or the
    /// one image of a `Scan` of a region read past the cache ([`next_region`]
    /// takes a region's share). Every device-fetched image is verified against
    /// the checksum sidecar; each fetched page the read admits becomes its
    /// page's entry as the device filled it — the cache and the caller share
    /// it.
    pub fn complete_read(&self, ticket: CachedReadTicket) -> IoResult<Vec<PageImage>> {
        let CachedReadTicket {
            mut tiles,
            missing,
            admit,
            ticket,
        } = ticket;
        if let Some(ticket) = ticket {
            let fetched = self.store.complete_read(ticket)?;
            for (&(i, first, n), mut image) in missing.iter().zip(fetched) {
                self.integrity.verify(&self.store, first, n, &mut image)?;
                tiles[i] = Some(image);
            }
            if let Some(class) = admit {
                // An admission evicts about one page: size the list for the
                // batch once, not by doubling.
                let mut victims = Vec::with_capacity(missing.len());
                {
                    let mut pool = self.pool.lock();
                    for &(i, page, _) in &missing {
                        let image = tiles[i].as_ref().expect("fetched above");
                        pool.cache.admit(page, PageImage::clone(image), class, &mut victims);
                    }
                }
                self.write_back(victims)?;
            }
        }
        Ok(tiles
            .into_iter()
            .map(|r| r.expect("hit at submission or fetched above"))
            .collect())
    }

    /// Locks the cache for a walk over resident internal nodes: no I/O, no
    /// admission, only hits. Every read and write of the store takes the same
    /// lock, so drop the guard before falling back to one.
    pub fn resident_pages(&self) -> ResidentPages<'_> {
        ResidentPages { pool: self.pool.lock() }
    }

    /// Reads one node page through the cache.
    pub fn read_page(&self, page: PageId) -> IoResult<PageImage> {
        Ok(self.read_pages(&[page])?.pop().expect("one image per page"))
    }

    /// Reads many node pages through the cache; the missing ones are fetched
    /// with a single psync call. Results are returned in the order of `pages`.
    pub fn read_pages(&self, pages: &[PageId]) -> IoResult<Vec<PageImage>> {
        let regions: Vec<(PageId, u64)> = pages.iter().map(|&p| (p, 1)).collect();
        self.complete_read(self.submit_read(&regions, PageClass::Inner, AccessHint::Point)?)
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

    /// Submits a batched write of `(first_page, image)` pairs, pages of
    /// `class`, each image a whole number of pages. A page image is
    /// *installed* as its page's entry: it follows the [`WritePolicy`] —
    /// write-back installs it dirty and sends nothing; write-through sends it
    /// with the call's one device batch and installs it, replacing its page's
    /// entry, once that batch has succeeded, so a call that installs completes
    /// at submission. A longer image drops the entries of the pages it covers
    /// at submission and always goes to the device; a call of only those stays
    /// in flight until [`CachedStore::complete_write`].
    ///
    /// The images are shared, never copied: the device stack is handed each
    /// one as it is ([`PageStore::submit_write`]), and the cache installs the
    /// very image that went to the device — one allocation per written page,
    /// the caller's. A caller must not change an image after handing it in
    /// (an `Arc` it still holds is shared, so [`std::sync::Arc::get_mut`]
    /// refuses anyway).
    ///
    /// Ordering: the simulated backends apply the data at submission, so a read
    /// issued while the write is in flight sees the new bytes. The real-file
    /// backend gives **no** order between an in-flight write and a later read —
    /// callers must not read pages overlapped by a write they have not completed
    /// yet (the tree's pipelines only overlap batches on disjoint pages).
    pub fn submit_write(&self, images: &[(PageId, PageImage)], class: PageClass) -> IoResult<CachedWriteTicket> {
        let page_size = self.page_size();
        let installs = |image: &PageImage| image.len() == page_size;
        let mut pool = self.pool.lock();
        for (first, image) in images.iter().filter(|(_, d)| !installs(d)) {
            for page in *first..*first + (image.len() / page_size) as u64 {
                pool.cache.invalidate_page(page);
            }
        }
        drop(pool);
        let keep_dirty = self.policy == WritePolicy::WriteBack;
        let around: Vec<(PageId, PageImage)>;
        let to_device = if keep_dirty {
            around = images.iter().filter(|(_, d)| !installs(d)).cloned().collect();
            &around[..]
        } else {
            images
        };
        let mut pending = match to_device {
            [] => None,
            _ => Some(self.submit_to_device(to_device)?),
        };
        if images.iter().any(|(_, d)| installs(d)) {
            if let Some(ticket) = pending.take() {
                self.store.complete_write(ticket)?;
            }
            let mut victims = Vec::new();
            {
                let mut pool = self.pool.lock();
                for (page, image) in images.iter().filter(|(_, d)| installs(d)) {
                    pool.cache
                        .install(*page, PageImage::clone(image), keep_dirty, class, &mut victims);
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

    /// Writes one node page (or region) image.
    pub fn write_page(&self, page: PageId, image: PageImage) -> IoResult<()> {
        self.write_pages(&[(page, image)], PageClass::Inner)
    }

    /// Writes many page or region images, pages of `class`; everything bound
    /// for the device goes in a single psync call, however long the list. It
    /// is the blocking form of the write driver's primitive,
    /// [`CachedStore::submit_write`] and [`CachedStore::complete_write`]: the
    /// PIO B-tree never calls it, because its write driver bounds every call
    /// by `PioMax`.
    pub fn write_pages(&self, images: &[(PageId, PageImage)], class: PageClass) -> IoResult<()> {
        self.complete_write(self.submit_write(images, class)?)
    }

    // -------------------------------------------------------------- maintenance --

    /// Flushes every dirty page to the store, in ascending page order, as one
    /// psync call — the checkpoint / shutdown path of the write-back policy.
    pub fn flush(&self) -> IoResult<()> {
        let dirty = self.pool.lock().cache.take_dirty();
        if dirty.is_empty() {
            return Ok(());
        }
        self.store.complete_write(self.submit_to_device(&dirty)?)
    }

    /// Drops every cached entry without writing anything (used between
    /// experiment phases and by crash simulation to start from a cold cache).
    pub fn drop_cache(&self) {
        self.pool.lock().cache.clear();
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

    /// Resizes the pool's share of the budget, writing back any dirty entries
    /// that no longer fit. Used by the experiments that sweep the pool size
    /// over one loaded index.
    pub fn resize_pool(&self, capacity_pages: u64) -> IoResult<()> {
        self.resize(|pool| pool.pool_pages = capacity_pages)
    }

    /// One incremental scrub step: reads back and verifies up to `max_pages`
    /// tracked pages from the scrub cursor (one psync batch), wrapping to the
    /// lowest page when the end of the tracked set is reached. A mismatch is
    /// re-read once; a *persistent* mismatch is counted as rot and — when the
    /// page's own entry is resident with bytes that verify — **healed** by
    /// writing that image to the device. No reader made that lookup, so it
    /// counts no hit or miss and leaves recency alone. Unhealable rot keeps its
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
            // Persistent rot. Heal from the cached copy when it verifies.
            self.integrity.count(|s| s.scrub_corruptions += 1);
            report.corrupt += 1;
            let cached = self.pool.lock().cache.peek(page);
            if let Some(copy) = cached.filter(|copy| page_checksum(copy) == expected) {
                self.store.write_page(page, copy)?;
                self.integrity.count(|s| s.scrub_healed += 1);
                report.healed += 1;
            }
        }
        self.integrity.count(|s| s.scrubbed_pages += report.scanned as u64);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::entries;
    use pio::SimPsyncIo;
    use ssd_sim::DeviceProfile;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn cached(policy: WritePolicy, pool_pages: u64) -> CachedStore {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 256 * 1024 * 1024));
        let store = PageStore::new(io, 4096);
        CachedStore::new(store, pool_pages, policy)
    }

    /// One blocking read of the region, pages of `class`, with `hint`: its
    /// tiles.
    fn tiles(c: &CachedStore, first: PageId, n: u64, class: PageClass, hint: AccessHint) -> IoResult<Vec<PageImage>> {
        c.complete_read(c.submit_read(&[(first, n)], class, hint)?)
    }

    /// One blocking leaf read of a region with the given hint: its bytes, the
    /// tiles joined.
    fn read_region(c: &CachedStore, first: PageId, n: u64, hint: AccessHint) -> IoResult<Vec<u8>> {
        Ok(tiles(c, first, n, PageClass::Leaf, hint)?.concat())
    }

    fn point_region(c: &CachedStore, first: PageId, n: u64) -> Vec<u8> {
        read_region(c, first, n, AccessHint::Point).unwrap()
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
        // Without a leaf budget too, every page of the region is a leaf
        // entry: a second read is all hits, and nothing is an inner entry.
        let before = c.store().stats().page_reads;
        assert_eq!(point_region(&c, first, 4), img);
        assert_eq!(c.store().stats().page_reads, before);
        let s = c.leaf_cache_stats();
        assert_eq!((s.misses, s.hits), (4, 4));
        assert_eq!(c.pool_stats(), CacheStats::default());
    }

    /// A store with a leaf budget over one two-page leaf, whose pages hold
    /// 1s and 2s, nothing of it resident.
    fn one_leaf() -> (CachedStore, PageId, Vec<u8>) {
        let c = cached(WritePolicy::WriteThrough, 16);
        c.set_leaf_cache(16).unwrap();
        let leaf = c.allocate_contiguous(2);
        let image: Vec<u8> = (0..2 * 4096u32).map(|i| (i / 4096 + 1) as u8).collect();
        c.write_page(leaf, image.as_slice().into()).unwrap();
        (c, leaf, image)
    }

    /// A whole-leaf read admits each page as its own entry, so a segment of
    /// the leaf — a lookup's piece or bupdate's last segment — is a hit that
    /// reads nothing from the device: the very image the leaf read admitted.
    #[test]
    fn a_segment_inside_a_resident_leaf_is_a_hit() {
        let (c, leaf, image) = one_leaf();
        let whole = tiles(&c, leaf, 2, PageClass::Leaf, AccessHint::Point).unwrap();
        assert_eq!(whole.len(), 2, "one image per admitted page");
        assert_eq!(whole.concat(), image);
        assert_eq!(c.leaf_cache_stats().misses, 2);
        let reads = c.store().stats().page_reads;
        for page in [leaf + 1, leaf] {
            let segment = tiles(&c, page, 1, PageClass::Leaf, AccessHint::Point).unwrap();
            assert!(Arc::ptr_eq(&segment[0], &whole[(page - leaf) as usize]), "{page}");
        }
        assert_eq!(c.store().stats().page_reads, reads, "no device read");
        assert_eq!((c.leaf_cache_stats().hits, c.pool_stats()), (2, CacheStats::default()));
    }

    /// A whole leaf whose pages came in as segments — one read, one written
    /// by bupdate — is a hit, for a point read and a scan alike.
    #[test]
    fn a_leaf_resident_from_segment_reads_and_writes_is_a_hit() {
        let (c, leaf, image) = one_leaf();
        assert_eq!(
            tiles(&c, leaf, 1, PageClass::Leaf, AccessHint::Point).unwrap().concat(),
            image[..4096]
        );
        c.write_pages(&[(leaf + 1, image[4096..].into())], PageClass::Leaf)
            .unwrap();
        let reads = c.store().stats().page_reads;
        for hint in [AccessHint::Point, AccessHint::Scan] {
            assert_eq!(point_region(&c, leaf, 2), image, "{hint:?}");
            assert_eq!(read_region(&c, leaf, 2, hint).unwrap(), image, "{hint:?}");
        }
        assert_eq!(c.store().stats().page_reads, reads, "no device read");
        assert_eq!((c.leaf_cache_stats().hits, c.leaf_cache_stats().scan_bypasses), (8, 0));
    }

    /// A leaf with one page resident reads only the other: one one-page
    /// request, admitted; the read hands back the resident page's image and
    /// the fetched one, in page order.
    #[test]
    fn a_partly_resident_leaf_reads_only_its_missing_page() {
        let (c, leaf, image) = one_leaf();
        let segment = tiles(&c, leaf + 1, 1, PageClass::Leaf, AccessHint::Point).unwrap();
        let before = c.store().stats();
        let whole = tiles(&c, leaf, 2, PageClass::Leaf, AccessHint::Point).unwrap();
        let after = c.store().stats();
        assert_eq!(
            (
                after.page_reads - before.page_reads,
                after.read_batches - before.read_batches
            ),
            (1, 1)
        );
        assert_eq!(whole.concat(), image);
        assert!(Arc::ptr_eq(&whole[1], &segment[0]), "the resident page is shared");
        let s = c.leaf_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        let entries = entries(&c.pool.lock().cache);
        assert_eq!(entries, vec![(leaf, PageClass::Leaf), (leaf + 1, PageClass::Leaf)]);
        // A scan of a leaf with a page missing reads it whole past the cache.
        c.drop_cache();
        tiles(&c, leaf, 1, PageClass::Leaf, AccessHint::Point).unwrap();
        let scanned = tiles(&c, leaf, 2, PageClass::Leaf, AccessHint::Scan).unwrap();
        assert_eq!((scanned.len(), scanned.concat()), (1, image));
        assert_eq!(c.leaf_cache_stats().scan_bypasses, 2);
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
        c.write_pages(
            &[(a, da.as_slice().into()), (b, db.as_slice().into())],
            PageClass::Inner,
        )
        .unwrap();
        c.drop_cache();
        let before = c.store().stats().read_batches;
        let ticket = c.submit_read(&[(a, 2), (b, 2)], PageClass::Leaf, AccessHint::Point);
        let out = c.complete_read(ticket.unwrap()).unwrap();
        assert_eq!(out.len(), 4, "one image per admitted page");
        assert_eq!(out[..2].concat(), da);
        assert_eq!(out[2..].concat(), db);
        assert_eq!(
            c.store().stats().read_batches - before,
            1,
            "both regions in one psync call"
        );
        // A scan of regions the cache does not hold sends each as one request
        // in one call, and hands back one image per region.
        c.drop_cache();
        let before = c.store().stats().read_batches;
        let ticket = c.submit_read(&[(a, 2), (b, 2)], PageClass::Leaf, AccessHint::Scan);
        let out = c.complete_read(ticket.unwrap()).unwrap();
        assert_eq!(out.len(), 2, "one image per region read past the cache");
        assert_eq!((&out[0][..], &out[1][..]), (&da[..], &db[..]));
        assert_eq!(c.store().stats().read_batches - before, 1);
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

    /// The leaf budget adds its pages to the pool's: a 4-page region that
    /// fits neither budget alone is cached in the two together.
    #[test]
    fn leaf_cache_serves_repeat_point_reads_without_device_io() {
        let c = cached(WritePolicy::WriteThrough, 2);
        c.set_leaf_cache(2).unwrap();
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
        assert_eq!(c.leaf_cache_stats().hits, 4, "one hit per page");
        // Without the leaf budget the region no longer fits: half of it
        // leaves, and a read fetches those two pages again — still leaf pages.
        c.set_leaf_cache(0).unwrap();
        assert_eq!(c.leaf_cache_stats().evictions, 2);
        assert_eq!(point_region(&c, first, 4), img);
        assert_eq!(c.store().stats().page_reads, before + 2);
        assert_eq!(c.pool_stats(), CacheStats::default(), "no page became an inner entry");
    }

    #[test]
    fn scan_hinted_reads_bypass_admission_but_hit_residents() {
        let c = cached(WritePolicy::WriteThrough, 16);
        c.set_leaf_cache(16).unwrap();
        let a = c.allocate_contiguous(2);
        let b = c.allocate_contiguous(2);
        c.write_page(a, vec![1u8; 2 * 4096].into()).unwrap();
        c.write_page(b, vec![2u8; 2 * 4096].into()).unwrap();
        // Scan miss: fetched but not admitted.
        read_region(&c, a, 2, AccessHint::Scan).unwrap();
        assert_eq!(c.leaf_cache_stats().scan_bypasses, 2, "a bypass per page");
        let before = c.store().stats().page_reads;
        read_region(&c, a, 2, AccessHint::Scan).unwrap();
        assert_eq!(c.store().stats().page_reads, before + 2, "scan read was not admitted");
        // Point read admits; a later scan then hits the resident copy.
        point_region(&c, b, 2);
        let before = c.store().stats().page_reads;
        read_region(&c, b, 2, AccessHint::Scan).unwrap();
        assert_eq!(c.store().stats().page_reads, before, "scan hits resident entries");
        // A node page is an inner entry, which ignores the hint: a
        // scan-hinted node read is admitted like any other.
        let p = c.allocate();
        c.store().write_page(p, vec![3u8; 4096].into()).unwrap();
        tiles(&c, p, 1, PageClass::Inner, AccessHint::Scan).unwrap();
        let before = c.store().stats().page_reads;
        tiles(&c, p, 1, PageClass::Inner, AccessHint::Scan).unwrap();
        assert_eq!(c.store().stats().page_reads, before, "node pages are always admitted");
        assert_eq!(c.leaf_cache_stats().scan_bypasses, 4, "and never count as bypasses");
        assert_eq!((c.pool_stats().misses, c.pool_stats().hits), (1, 1));
    }

    #[test]
    fn leaf_cache_is_invalidated_by_every_write_path() {
        let c = cached(WritePolicy::WriteThrough, 16);
        c.set_leaf_cache(32).unwrap();
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
        c.write_pages(&[(r, data.into())], PageClass::Leaf).unwrap();
        assert_eq!(point_region(&c, r, 2)[0], 5);
        // Freeing a page inside the region.
        c.free(r + 1);
        let before = c.store().stats().page_reads;
        point_region(&c, r, 2);
        assert_eq!(
            c.store().stats().page_reads,
            before + 1,
            "free must drop the freed page"
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
        assert_eq!(c.pool_stats().misses, 1, "a zero budget still counts misses");
    }

    /// The class routes, not the length: a region and a page read as leaf
    /// pages are leaf entries, whose misses ride one device batch as a
    /// one-page request each, and a node read of a page is an inner page —
    /// all in the one budget, here the leaf budget's four pages alone.
    #[test]
    fn a_mixed_read_batch_routes_by_class_and_rides_one_device_batch() {
        let c = cached(WritePolicy::WriteThrough, 0);
        c.set_leaf_cache(4).unwrap();
        let r = c.allocate_contiguous(2);
        let (p, q) = (c.allocate(), c.allocate());
        c.write_page(r, vec![1u8; 2 * 4096].into()).unwrap();
        c.write_pages(
            &[(p, vec![2u8; 4096].into()), (q, vec![3u8; 4096].into())],
            PageClass::Inner,
        )
        .unwrap();
        c.drop_cache();
        let before = c.store().stats();
        let read = |regions: &[(PageId, u64)], class| {
            let out = c.complete_read(c.submit_read(regions, class, AccessHint::Point).unwrap());
            out.unwrap().iter().map(|tile| tile[0]).collect::<Vec<_>>()
        };
        assert_eq!(read(&[(r, 2), (p, 1)], PageClass::Leaf), vec![1, 1, 2]);
        assert_eq!(read(&[(q, 1)], PageClass::Inner), vec![3]);
        let after = c.store().stats();
        assert_eq!(after.read_batches - before.read_batches, 2, "one batch per call");
        assert_eq!(after.page_reads - before.page_reads, 4);
        assert_eq!((c.pool_stats().misses, c.leaf_cache_stats().misses), (1, 3));
        let entries = entries(&c.pool.lock().cache);
        let leaf = PageClass::Leaf;
        assert_eq!(
            entries,
            vec![(r, leaf), (r + 1, leaf), (p, leaf), (q, PageClass::Inner)]
        );
        // All four were admitted: the repeat is all hits.
        read(&[(r, 2), (p, 1)], PageClass::Leaf);
        read(&[(q, 1)], PageClass::Inner);
        assert_eq!(c.store().stats().page_reads, after.page_reads);
        assert_eq!((c.pool_stats().hits, c.leaf_cache_stats().hits), (1, 3));
    }

    #[test]
    fn a_mixed_write_batch_installs_its_pages_and_writes_around_its_regions() {
        let c = cached(WritePolicy::WriteThrough, 16);
        c.set_leaf_cache(16).unwrap();
        let r = c.allocate_contiguous(2);
        let p = c.allocate();
        let before = c.store().stats().write_batches;
        c.write_pages(
            &[(r, vec![1u8; 2 * 4096].into()), (p, vec![2u8; 4096].into())],
            PageClass::Inner,
        )
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
        c.write_pages(
            &[(r, vec![1u8; 2 * 4096].into()), (p, vec![2u8; 4096].into())],
            PageClass::Inner,
        )
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
        c.write_pages(&[(first, vec![7u8; 3 * 4096].into())], PageClass::Inner)
            .unwrap();
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
                        c.submit_read(&[(0, 1), (page, n)], PageClass::Inner, hint),
                        Err(pio::IoError::Corruption { .. })
                    ),
                    "region ({page}, {n}) must be refused"
                );
            }
        }
        assert_eq!(read_region(&c, 0, 3, AccessHint::Point).unwrap(), vec![7u8; 3 * 4096]);
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
            c.set_leaf_cache(8).unwrap();
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
            let held_region = tiles(&c, r, 2, PageClass::Leaf, AccessHint::Point).unwrap();
            let again = tiles(&c, r, 2, PageClass::Leaf, AccessHint::Point).unwrap();
            assert!(held_region.iter().zip(&again).all(|(a, b)| Arc::ptr_eq(a, b)));
            c.write_page(r + 1, filled(4, 1)).unwrap();
            c.flush().unwrap();
            assert!(
                all(&held_region.concat(), 3),
                "{policy:?}: page write inside a held region"
            );
            let reread = point_region(&c, r, 2);
            assert!(all(&reread[..4096], 3) && all(&reread[4096..], 4));
            c.write_page(r, filled(5, 2)).unwrap();
            assert!(
                all(&held_region.concat(), 3),
                "{policy:?}: region write over a held region"
            );
            assert!(all(&point_region(&c, r, 2), 5));

            // Spares: misses past the budget (12 pages) evict the held
            // region's pages and images nobody holds; the misses after them
            // read into the unheld ones (each miss takes a spare, its
            // admission's eviction gives one back), never into a held one.
            let held_region = tiles(&c, r, 2, PageClass::Leaf, AccessHint::Point).unwrap();
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
                all(&held_region.concat(), 5),
                "{policy:?}: misses into spares under a held region"
            );

            // Eviction (the budget holds 12 pages, and the inner entries go
            // only after every leaf entry), drop_cache and free.
            let held = c.read_page(p).unwrap();
            for _ in 0..12 {
                let other = c.allocate();
                c.write_page(other, filled(9, 1)).unwrap();
            }
            assert!(all(&held, 2), "{policy:?}: eviction under a held image");
            assert_eq!(entries(&c.pool.lock().cache).len(), 12, "{policy:?}: p was evicted");
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

    /// Scrub heals a page from its resident entry: here the second page of a
    /// leaf a region read admitted.
    #[test]
    fn scrub_heals_a_page_from_a_resident_leaf_region() {
        let c = cached(WritePolicy::WriteThrough, 4);
        c.set_leaf_cache(8).unwrap();
        let leaf = c.allocate_contiguous(2);
        let image: Vec<u8> = (0..2 * 4096u32).map(|i| (i / 4096 + 1) as u8).collect();
        c.write_page(leaf, image.as_slice().into()).unwrap();
        point_region(&c, leaf, 2);
        rot(&c, leaf + 1, 40);
        let mut healed = 0;
        loop {
            let r = c.scrub_step(8).unwrap();
            healed += r.healed;
            if r.wrapped {
                break;
            }
        }
        assert_eq!(healed, 1);
        assert_eq!(c.leaf_cache_stats().hits, 0, "the heal lookup is no access");
        c.drop_cache();
        assert_eq!(
            c.read_page(leaf + 1).unwrap()[..],
            image[4096..],
            "the device copy verifies"
        );
    }

    /// The store against a naive reference — what each page last had
    /// written to it — through a seeded stream of node, segment, whole-leaf
    /// and `Scan` reads, node, segment and region writes, and frees, without
    /// and with a leaf budget, and budgets that shrink and grow. Every read
    /// returns the last bytes written, whether its pages hit or missed, tiled
    /// as one image per page or one per region a `Scan` read past the cache;
    /// the cache stays inside the budget; and an inner entry is evicted only
    /// when no leaf entry is left.
    /// `CRASH_SEED` replays a failure.
    #[test]
    fn differential_against_a_naive_reference() {
        let seed: u64 = std::env::var("CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_5702E);
        let mut x = seed | 1;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let filled = |bytes: &[u8]| -> PageImage { bytes.iter().flat_map(|&b| [b; 4096]).collect() };
        for leaf_pages in [0, 20] {
            let c = cached(WritePolicy::WriteThrough, 6);
            c.set_leaf_cache(leaf_pages).unwrap();
            // Twelve two-page leaves and eight internal nodes: the budget
            // (6 + `leaf_pages` pages, resized now and then to as little as
            // one) holds every internal node or only some.
            let leaves: Vec<PageId> = (0..12).map(|_| c.allocate_contiguous(2)).collect();
            let inner: Vec<PageId> = (0..8).map(|_| c.allocate()).collect();
            let mut model: HashMap<PageId, u8> = HashMap::new();
            for (i, &leaf) in leaves.iter().enumerate() {
                c.write_page(leaf, filled(&[i as u8, i as u8 + 100])).unwrap();
                model.extend([(leaf, i as u8), (leaf + 1, i as u8 + 100)]);
            }
            for (i, &page) in inner.iter().enumerate() {
                c.write_page(page, filled(&[i as u8 + 150])).unwrap();
                model.insert(page, i as u8 + 150);
            }
            for step in 0..6_000u32 {
                let ctx = format!("CRASH_SEED={seed} leaf_pages={leaf_pages} step={step}");
                let byte = step as u8;
                let node = inner[rand(8) as usize];
                let leaf = leaves[rand(12) as usize];
                let segment = leaf + rand(2);
                let inner_evictions = c.pool_stats().evictions;
                let read = |first: PageId, n: u64, class: PageClass, hint: AccessHint| {
                    let images = tiles(&c, first, n, class, hint).unwrap();
                    let mut rest = &images[..];
                    let region = next_region(&mut rest, n, 4096);
                    assert!(rest.is_empty() && (region.len() == 1 || region.len() as u64 == n));
                    (first, images.concat())
                };
                let (first, image) = match rand(11) {
                    0..=1 => read(node, 1, PageClass::Inner, AccessHint::Point),
                    2 => read(segment, 1, PageClass::Leaf, AccessHint::Point),
                    3 => read(segment, 1, PageClass::Leaf, AccessHint::Scan),
                    4 => read(leaf, 2, PageClass::Leaf, AccessHint::Point),
                    5 => read(leaf, 2, PageClass::Leaf, AccessHint::Scan),
                    6 => {
                        c.write_page(node, filled(&[byte])).unwrap();
                        model.insert(node, byte);
                        read(node, 1, PageClass::Inner, AccessHint::Point)
                    }
                    7 => {
                        c.write_pages(&[(segment, filled(&[byte]))], PageClass::Leaf).unwrap();
                        model.insert(segment, byte);
                        read(leaf, 2, PageClass::Leaf, AccessHint::Point)
                    }
                    8 => {
                        c.write_page(leaf, filled(&[byte, byte.wrapping_add(1)])).unwrap();
                        model.extend([(leaf, byte), (leaf + 1, byte.wrapping_add(1))]);
                        read(segment, 1, PageClass::Leaf, AccessHint::Point)
                    }
                    9 => {
                        let (page, class) = match rand(2) {
                            0 => (node, PageClass::Inner),
                            _ => (segment, PageClass::Leaf),
                        };
                        c.free(page);
                        read(page, 1, class, AccessHint::Point)
                    }
                    _ if rand(4) == 0 => {
                        c.resize_pool(rand(8)).unwrap();
                        if leaf_pages > 0 {
                            c.set_leaf_cache(1 + rand(leaf_pages)).unwrap();
                        }
                        read(node, 1, PageClass::Inner, AccessHint::Point)
                    }
                    _ => read(leaf, 2, PageClass::Leaf, AccessHint::Point),
                };
                for (i, page) in image.chunks(4096).enumerate() {
                    let expected = model[&(first + i as u64)];
                    assert!(
                        page.iter().all(|&b| b == expected),
                        "{ctx}: page {} read stale bytes",
                        first + i as u64
                    );
                }
                let pool = c.pool.lock();
                let entries = entries(&pool.cache);
                assert!(
                    entries.len() as u64 <= pool.pool_pages + pool.leaf_pages,
                    "{ctx}: over budget"
                );
                let leaf_entries = entries.iter().filter(|&&(_, class)| class == PageClass::Leaf).count();
                if pool.cache.stats(PageClass::Inner).evictions > inner_evictions {
                    assert_eq!(leaf_entries, 0, "{ctx}: an inner entry left before the leaf entries");
                }
            }
            let (inner, leaf) = (c.pool_stats(), c.leaf_cache_stats());
            assert!(inner.hits > 0 && inner.evictions > 0, "{inner:?}");
            assert!(leaf.hits > 0 && leaf.evictions > 0, "{leaf:?}");
        }
    }
}
