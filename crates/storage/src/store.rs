//! The page store: a flat page space over a submission/completion I/O backend.
//!
//! There is one way in and one way out: [`PageStore::submit_read`] takes
//! `(first_page, n_pages)` regions, [`PageStore::submit_write`] takes
//! `(first_page, image)` pairs, and a single page is a one-page region. The
//! blocking forms (`read_page`, `read_regions`, `write_page`, `write_pages`)
//! are the ticketed pair with an immediate wait; index hot paths use the
//! tickets to keep several batches in flight. A read returns the
//! [`PageImage`]s the backend filled, one per region, unshared.

use crate::page::{page_offset, PageId, PageImage};
use parking_lot::Mutex;
use pio::{IoQueue, IoResult, ReadRequest, WriteRequest};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An in-flight read batch submitted through [`PageStore::submit_read`],
/// redeemed with [`PageStore::complete_read`].
#[derive(Debug)]
#[must_use = "an in-flight read must be completed to obtain its buffers"]
pub struct ReadTicket {
    ticket: pio::Ticket,
}

/// An in-flight write batch submitted through [`PageStore::submit_write`],
/// redeemed with [`PageStore::complete_write`].
#[derive(Debug)]
#[must_use = "an in-flight write must be completed to observe durability"]
pub struct WriteTicket {
    ticket: pio::Ticket,
}

/// Allocation and I/O counters of a [`PageStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pages allocated (including contiguous runs).
    pub allocated: u64,
    /// Pages returned to the free list.
    pub freed: u64,
    /// Pages read from the device (a region request counts every page it covers).
    pub page_reads: u64,
    /// Pages written to the device (likewise).
    pub page_writes: u64,
    /// psync read calls issued.
    pub read_batches: u64,
    /// psync write calls issued.
    pub write_batches: u64,
}

/// The reusable-page pool: a stack for O(1) pop plus a membership set so that
/// freeing an already-free page is an O(1) no-op (see [`PageStore::free`]).
#[derive(Debug, Default)]
struct FreeList {
    stack: Vec<PageId>,
    members: std::collections::HashSet<PageId>,
}

impl FreeList {
    /// Adds `page` unless it is already free; returns whether it was added.
    fn push(&mut self, page: PageId) -> bool {
        if !self.members.insert(page) {
            return false;
        }
        self.stack.push(page);
        true
    }

    fn pop(&mut self) -> Option<PageId> {
        let page = self.stack.pop()?;
        self.members.remove(&page);
        Some(page)
    }
}

/// A flat page space with allocation and batched (psync) page-region I/O, generic
/// over any [`IoQueue`] backend.
///
/// Cloning a `PageStore` is cheap and yields a handle to the same underlying space
/// (allocation state and statistics are shared).
#[derive(Clone)]
pub struct PageStore {
    io: Arc<dyn IoQueue>,
    page_size: usize,
    next_page: Arc<AtomicU64>,
    free_list: Arc<Mutex<FreeList>>,
    stats: Arc<Mutex<StoreStats>>,
}

impl std::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStore")
            .field("page_size", &self.page_size)
            .field("next_page", &self.next_page.load(Ordering::Relaxed))
            .finish()
    }
}

impl PageStore {
    /// Creates a store with `page_size`-byte pages over `io`.
    pub fn new(io: Arc<dyn IoQueue>, page_size: usize) -> Self {
        assert!(page_size >= 64, "page size must hold at least a node header");
        Self {
            io,
            page_size,
            next_page: Arc::new(AtomicU64::new(0)),
            free_list: Arc::new(Mutex::new(FreeList::default())),
            stats: Arc::new(Mutex::new(StoreStats::default())),
        }
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The backend this store performs I/O through.
    pub fn io(&self) -> &Arc<dyn IoQueue> {
        &self.io
    }

    /// Total simulated / wall-clock I/O time consumed through this store's backend, µs.
    pub fn io_elapsed_us(&self) -> f64 {
        self.io.io_stats().elapsed_us
    }

    /// The backend's advisory queue depth in requests (see
    /// [`IoQueue::queue_depth_hint`]) — what pipelined callers divide by their
    /// per-batch request count to size their ticket lookahead.
    pub fn queue_depth_hint(&self) -> Option<usize> {
        self.io.queue_depth_hint()
    }

    /// Snapshot of the allocation / I/O counters.
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock()
    }

    /// Number of pages handed out so far (high-water mark, ignoring frees).
    pub fn high_water_pages(&self) -> u64 {
        self.next_page.load(Ordering::Relaxed)
    }

    /// Raises the allocation frontier to at least `pages` (no-op when already
    /// past it). Used when reopening a store over existing data: pages below the
    /// restored high-water mark are in use and must never be handed out again —
    /// neither by the bump allocator nor, transitively, by a [`PageStore::free`]
    /// of a page the allocator has not yet reached.
    pub fn ensure_high_water(&self, pages: u64) {
        self.next_page.fetch_max(pages, Ordering::Relaxed);
    }

    /// Allocates one page, reusing a freed page when available.
    pub fn allocate(&self) -> PageId {
        self.stats.lock().allocated += 1;
        if let Some(p) = self.free_list.lock().pop() {
            return p;
        }
        self.next_page.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns a page to the free list. Freed pages are reused by later
    /// single-page allocations. Freeing an already-free page is a no-op: crash
    /// recovery may re-free pages that an in-process flush rollback reclaimed
    /// just before the crash, and a double entry would let [`PageStore::allocate`]
    /// hand the page out twice.
    pub fn free(&self, page: PageId) {
        if self.free_list.lock().push(page) {
            self.stats.lock().freed += 1;
        }
    }

    /// Allocates `n` physically consecutive pages and returns the first id. Used for
    /// multi-page leaf nodes, which must be contiguous so that one large read covers
    /// the whole node.
    pub fn allocate_contiguous(&self, n: u64) -> PageId {
        assert!(n > 0);
        self.stats.lock().allocated += n;
        self.next_page.fetch_add(n, Ordering::Relaxed)
    }

    // The blocking forms below are the ticketed pair with an immediate wait.

    /// Reads one page.
    pub fn read_page(&self, page: PageId) -> IoResult<PageImage> {
        Ok(self.read_regions(&[(page, 1)])?.pop().expect("one buffer per request"))
    }

    /// Reads several regions with one psync call; results are in the order of
    /// `regions`.
    pub fn read_regions(&self, regions: &[(PageId, u64)]) -> IoResult<Vec<PageImage>> {
        self.complete_read(self.submit_read(regions)?)
    }

    /// Writes one page image.
    pub fn write_page(&self, page: PageId, image: PageImage) -> IoResult<()> {
        self.write_pages(&[(page, image)])
    }

    /// Writes several page or region images with one psync call.
    pub fn write_pages(&self, images: &[(PageId, PageImage)]) -> IoResult<()> {
        self.complete_write(self.submit_write(images)?)
    }

    // ------------------------------------------------- submission/completion tier --

    /// Submits one read batch without waiting for it: each `(first_page,
    /// n_pages)` entry becomes one request of `n_pages × page_size` bytes
    /// (package-level parallelism for the PIO B-tree's enlarged leaves; a page
    /// is a one-page region). The batch stays in flight — overlapping whatever
    /// else is outstanding on the backend — until [`PageStore::complete_read`]
    /// is called.
    pub fn submit_read(&self, regions: &[(PageId, u64)]) -> IoResult<ReadTicket> {
        let reqs: Vec<ReadRequest> = regions
            .iter()
            .map(|&(p, n)| {
                assert!(n > 0, "a region holds at least one page");
                ReadRequest::new(page_offset(p, self.page_size), self.page_size * n as usize)
            })
            .collect();
        let ticket = self.io.submit_read(&reqs)?;
        if !regions.is_empty() {
            let mut s = self.stats.lock();
            s.page_reads += regions.iter().map(|&(_, n)| n).sum::<u64>();
            s.read_batches += 1;
        }
        Ok(ReadTicket { ticket })
    }

    /// Waits for an in-flight read and returns one image per submitted
    /// region, in submission order — the images the backend filled, which
    /// nothing else references.
    pub fn complete_read(&self, ticket: ReadTicket) -> IoResult<Vec<PageImage>> {
        Ok(self.io.wait(ticket.ticket)?.buffers)
    }

    /// Submits one write batch without waiting for it: each `(first_page,
    /// image)` entry, a whole number of pages long, becomes one request that
    /// carries the shared image ([`WriteRequest::shared`]) — a layer below
    /// that keeps the bytes (a retry, a worker thread) takes another
    /// reference, not a copy. Durability is observed by
    /// [`PageStore::complete_write`].
    pub fn submit_write(&self, images: &[(PageId, PageImage)]) -> IoResult<WriteTicket> {
        let reqs: Vec<WriteRequest> = images
            .iter()
            .map(|(p, image)| {
                assert!(
                    !image.is_empty() && image.len() % self.page_size == 0,
                    "a written image must be a whole number of pages"
                );
                WriteRequest::shared(page_offset(*p, self.page_size), image)
            })
            .collect();
        let ticket = self.io.submit_write(&reqs)?;
        if !images.is_empty() {
            let mut s = self.stats.lock();
            s.page_writes += images
                .iter()
                .map(|(_, d)| (d.len() / self.page_size) as u64)
                .sum::<u64>();
            s.write_batches += 1;
        }
        Ok(WriteTicket { ticket })
    }

    /// Waits for an in-flight write to become durable.
    pub fn complete_write(&self, ticket: WriteTicket) -> IoResult<()> {
        self.io.wait(ticket.ticket)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio::SimPsyncIo;
    use ssd_sim::DeviceProfile;

    fn store(page_size: usize) -> PageStore {
        let io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 256 * 1024 * 1024));
        PageStore::new(io, page_size)
    }

    #[test]
    fn allocation_is_monotonic_and_reuses_freed_pages() {
        let s = store(4096);
        let a = s.allocate();
        let b = s.allocate();
        assert_ne!(a, b);
        s.free(a);
        let c = s.allocate();
        assert_eq!(c, a, "freed page should be reused");
        assert_eq!(s.stats().allocated, 3);
        assert_eq!(s.stats().freed, 1);
    }

    #[test]
    fn contiguous_allocation_is_really_contiguous() {
        let s = store(4096);
        let first = s.allocate_contiguous(4);
        let next = s.allocate();
        assert_eq!(next, first + 4);
    }

    #[test]
    fn single_page_round_trip() {
        let s = store(4096);
        let p = s.allocate();
        let mut img = vec![0u8; 4096];
        img[..4].copy_from_slice(b"page");
        s.write_page(p, img.as_slice().into()).unwrap();
        assert_eq!(&s.read_page(p).unwrap()[..], img);
    }

    #[test]
    fn batched_round_trip_preserves_order() {
        let s = store(2048);
        let pages: Vec<PageId> = (0..16).map(|_| s.allocate()).collect();
        let images: Vec<Vec<u8>> = pages.iter().map(|&p| vec![p as u8; 2048]).collect();
        let writes: Vec<(PageId, PageImage)> = pages
            .iter()
            .zip(&images)
            .map(|(&p, d)| (p, d.as_slice().into()))
            .collect();
        s.write_pages(&writes).unwrap();
        let regions: Vec<(PageId, u64)> = pages.iter().map(|&p| (p, 1)).collect();
        let read_back = s.read_regions(&regions).unwrap();
        let read_back: Vec<&[u8]> = read_back.iter().map(|image| &image[..]).collect();
        assert_eq!(read_back, images);
        assert_eq!(s.stats().write_batches, 1);
        assert_eq!(s.stats().read_batches, 1);
        assert_eq!(s.stats().page_writes, 16);
    }

    #[test]
    fn region_round_trip() {
        let s = store(2048);
        let first = s.allocate_contiguous(4);
        let data: Vec<u8> = (0..4 * 2048u32).map(|i| (i % 255) as u8).collect();
        s.write_pages(&[(first, data.as_slice().into())]).unwrap();
        let read_back = s.read_regions(&[(first, 4)]).unwrap();
        assert_eq!(
            read_back.iter().map(|image| &image[..]).collect::<Vec<_>>(),
            [&data[..]]
        );
        assert_eq!(s.stats().page_writes, 4, "a region request counts its pages");
        assert_eq!(s.stats().page_reads, 4);
    }

    #[test]
    fn multiple_regions_in_one_call() {
        let s = store(2048);
        let a = s.allocate_contiguous(2);
        let b = s.allocate_contiguous(3);
        let da = vec![1u8; 2 * 2048];
        let db = vec![2u8; 3 * 2048];
        s.write_pages(&[(a, da.as_slice().into()), (b, db.as_slice().into())])
            .unwrap();
        let out = s.read_regions(&[(a, 2), (b, 3)]).unwrap();
        assert_eq!(&out[0][..], da);
        assert_eq!(&out[1][..], db);
    }

    #[test]
    #[should_panic(expected = "whole number of pages")]
    fn wrong_sized_page_is_rejected() {
        let s = store(4096);
        let p = s.allocate();
        let _ = s.write_page(p, vec![0u8; 100].into());
    }

    #[test]
    fn empty_batches_are_noops() {
        let s = store(4096);
        assert!(s.read_regions(&[]).unwrap().is_empty());
        s.write_pages(&[]).unwrap();
        assert_eq!(s.stats().read_batches, 0);
        assert_eq!(s.stats().write_batches, 0);
    }

    #[test]
    fn io_time_accumulates() {
        let s = store(4096);
        let p = s.allocate();
        assert_eq!(s.io_elapsed_us(), 0.0);
        s.write_page(p, vec![0u8; 4096].into()).unwrap();
        assert!(s.io_elapsed_us() > 0.0);
    }

    #[test]
    fn clones_share_state() {
        let s = store(4096);
        let s2 = s.clone();
        let p = s.allocate();
        assert_ne!(s2.allocate(), p);
        assert_eq!(s.stats().allocated, 2);
    }
}
