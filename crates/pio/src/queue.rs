//! The submission/completion I/O contract: [`IoQueue`].
//!
//! The paper's psync I/O is *emulated* on top of libaio's `io_submit` /
//! `io_getevents` (Section 2.3): the blocking call the index sees is a convenience
//! wrapper over an inherently asynchronous submission/completion interface. This
//! module exposes that underlying interface directly:
//!
//! * [`IoQueue::submit_read`] / [`IoQueue::submit_write`] hand a whole batch to the
//!   device and return a [`Ticket`] immediately — the `io_submit` half;
//! * [`IoQueue::wait`] blocks until the ticketed batch has completed and returns its
//!   [`Completion`] (one shared image per read request + [`BatchStats`]) — the
//!   `io_getevents` half with a full wait.
//!
//! A caller may hold several tickets and wait on them in any order.
//!
//! Batches submitted while other tickets are outstanding *overlap on the device*:
//! the simulated backend schedules every in-flight batch on a shared device
//! timeline with a common start time, so two shards submitting through one backend
//! contend for the same channels and host interface — exactly the shared-device
//! behaviour of Figure 4(a)/(b). The paper's blocking psync call is the provided
//! [`IoQueue::psync_read`] / [`IoQueue::psync_write`]: submit followed by an
//! immediate wait.

use crate::error::IoResult;
use crate::request::{ReadRequest, WriteRequest};
use crate::stats::{BatchStats, IoStats};
use std::cell::RefCell;
use std::sync::Arc;

/// Ticket id reserved for empty submissions, which complete immediately and are
/// never entered into a backend's in-flight table.
pub(crate) const EMPTY_TICKET: u64 = u64::MAX;

/// Handle to one in-flight batch, returned by [`IoQueue::submit_read`] /
/// [`IoQueue::submit_write`] and consumed by [`IoQueue::wait`].
///
/// Tickets are deliberately neither `Copy` nor `Clone`: exactly one completion
/// exists per submission, and consuming the ticket to observe it makes
/// double-waits a type error rather than a runtime one.
#[derive(Debug, PartialEq, Eq, Hash)]
#[must_use = "an in-flight batch must be waited on to observe its completion"]
pub struct Ticket(pub(crate) u64);

impl Ticket {
    /// The raw ticket id (unique within one backend instance; empty submissions
    /// share a reserved sentinel id).
    pub fn id(&self) -> u64 {
        self.0
    }

    /// Whether this ticket belongs to an empty submission (always complete).
    pub fn is_empty_batch(&self) -> bool {
        self.0 == EMPTY_TICKET
    }

    pub(crate) fn empty() -> Self {
        Ticket(EMPTY_TICKET)
    }
}

/// The outcome of one completed submission.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Completion {
    /// One shared image per read request, in request order; empty for writes.
    /// The backend fills each image — a spare of the submitting thread's when
    /// it has one ([`zeroed_image`]), else a new allocation — and hands over
    /// its only reference, so a caller may keep it (a cache admits it as is),
    /// change it in place through [`Arc::make_mut`] without a copy, or hand it
    /// back with [`recycle_image`] once done.
    pub buffers: Vec<Arc<[u8]>>,
    /// Size and timing of the batch. For batches that overlapped with other
    /// in-flight tickets, `elapsed_us` is the batch's completion latency measured
    /// from the shared window start — queueing behind the other tickets' device
    /// work is visible in it.
    pub stats: BatchStats,
}

/// Spare images one thread keeps for [`zeroed_image`] to hand out again.
///
/// Sized by the largest burst: measured with an unbounded list, one OPQ flush
/// of the benchmark's `write_flush` shape (8 OPQ pages, 4 KiB pages,
/// two-page leaf regions) hands back up to 193 images before the next flush
/// encodes into them. The engine runs every shard's flushes on the thread
/// that calls it, so one list must hold a whole flush's images: with 64 or 128
/// spares that workload made 2.22 allocations per op, with 256 1.77, and with
/// 512 no fewer.
const SPARE_IMAGES: usize = 256;

thread_local! {
    /// This thread's spare images, each unshared: [`recycle_image`] keeps only
    /// an image nobody else references, and nothing here hands one out twice.
    static SPARES: RefCell<Vec<Arc<[u8]>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a spare image of exactly `len` bytes off this thread's list, most
/// recently recycled first, and has `fill` overwrite whatever its last owner
/// left in it.
fn reuse_spare(len: usize, fill: impl FnOnce(&mut [u8])) -> Option<Arc<[u8]>> {
    let mut spare = SPARES
        .try_with(|spares| {
            let mut spares = spares.borrow_mut();
            let at = spares.iter().rposition(|spare| spare.len() == len)?;
            Some(spares.swap_remove(at))
        })
        .ok()??;
    fill(Arc::get_mut(&mut spare).expect("a spare is unshared"));
    Some(spare)
}

/// An unshared copy of `data`: a spare of its length when this thread has
/// one, else a new allocation.
pub(crate) fn copied_image(data: &[u8]) -> Arc<[u8]> {
    reuse_spare(data.len(), |spare| spare.copy_from_slice(data)).unwrap_or_else(|| Arc::from(data))
}

/// An unshared, zero-filled image of `len` bytes — what a backend fills in
/// place (through [`Arc::get_mut`]) before handing it out in a
/// [`Completion`], and what a writer encodes a page into before it submits
/// the image with [`WriteRequest::shared`]. It is a spare this thread got back
/// through [`recycle_image`], zeroed again, when one of `len` bytes is at
/// hand, and one new allocation only when none is.
pub fn zeroed_image(len: usize) -> Arc<[u8]> {
    reuse_spare(len, |spare| spare.fill(0)).unwrap_or_else(|| std::iter::repeat_n(0u8, len).collect())
}

/// Hands an image that is done with back to this thread's spare list, for
/// [`zeroed_image`] to reuse its allocation. The image is kept only if it is
/// the last reference to its bytes — no other [`Arc`] and no [`Weak`] — and
/// the list holds fewer than 256 spares; otherwise it is simply dropped. A
/// reader that still holds the image therefore never sees its bytes change.
///
/// [`Weak`]: std::sync::Weak
pub fn recycle_image(mut image: Arc<[u8]>) {
    if Arc::get_mut(&mut image).is_none() {
        return;
    }
    // A thread past its thread-locals' destruction drops the image instead.
    let _ = SPARES.try_with(|spares| {
        let mut spares = spares.borrow_mut();
        if spares.len() < SPARE_IMAGES {
            // Sized once, so the list itself never reallocates.
            if spares.capacity() == 0 {
                spares.reserve_exact(SPARE_IMAGES);
            }
            spares.push(image);
        }
    });
}

/// How many spare images this thread holds, at most 256 — what a test reads
/// to see whether an image was handed back or dropped.
pub fn spare_images() -> usize {
    SPARES.try_with(|spares| spares.borrow().len()).unwrap_or(0)
}

/// Result of the [`IoQueue::try_complete`] shim.
#[derive(Debug)]
pub enum TryComplete {
    /// The batch has completed; the ticket is consumed.
    Ready(Completion),
    /// The batch is still in flight; the ticket is handed back.
    Pending(Ticket),
}

/// The submission/completion I/O queue contract.
///
/// 1. A submission delivers a *set* of I/Os of one kind (reads and writes are never
///    mingled within a call — Principle 3 of the paper) and returns a [`Ticket`]
///    without blocking.
/// 2. The set is kept together down to the device, so its command queue sees the
///    whole batch in one scheduling window; sets submitted while others are in
///    flight share the device and contend with them.
/// 3. Completion is observed explicitly, by blocking on the ticket
///    ([`IoQueue::wait`]). Completions may be reaped in any order.
///
/// All methods take `&self`; backends use interior mutability so one instance can
/// be shared by concurrent submitters.
pub trait IoQueue: Send + Sync {
    /// Submits a read batch. The returned ticket's [`Completion`] carries one
    /// shared image per request, in request order.
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket>;

    /// Submits a write batch. The data is captured at submission — borrowed bytes
    /// are written or copied, a shared image ([`WriteRequest::shared`]) may be kept
    /// by reference — so the slices can be reused immediately; the batch is
    /// durable when its completion is reaped.
    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket>;

    /// Blocks until the ticketed batch has completed and returns its completion.
    fn wait(&self, ticket: Ticket) -> IoResult<Completion>;

    /// A shim, not a poll: it waits on `ticket` and reports it ready. Nothing
    /// polls; only the benchmark's metering wrapper (`perf/src/metered.rs`)
    /// still implements it, and it goes together with [`TryComplete`] in
    /// ROADMAP direction 9.
    fn try_complete(&self, ticket: Ticket) -> IoResult<TryComplete> {
        Ok(TryComplete::Ready(self.wait(ticket)?))
    }

    /// The paper's blocking psync read (Section 2.3): submits the whole set as
    /// one group and returns only after every I/O in it has completed — one
    /// shared image per request, in request order, plus the batch's time. Reads and
    /// writes go through separate calls, which encodes Principle 3 (*no mingled
    /// read/writes*).
    fn psync_read(&self, reqs: &[ReadRequest]) -> IoResult<(Vec<Arc<[u8]>>, BatchStats)> {
        let done = self.wait(self.submit_read(reqs)?)?;
        Ok((done.buffers, done.stats))
    }

    /// The blocking psync write: returns once every request is durable on the
    /// device.
    fn psync_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<BatchStats> {
        Ok(self.wait(self.submit_write(reqs)?)?.stats)
    }

    /// Convenience: single synchronous read.
    fn read_at(&self, offset: u64, len: usize) -> IoResult<Arc<[u8]>> {
        let (mut bufs, _) = self.psync_read(&[ReadRequest::new(offset, len)])?;
        Ok(bufs.pop().expect("one buffer per request"))
    }

    /// Convenience: single synchronous write.
    fn write_at(&self, offset: u64, data: &[u8]) -> IoResult<()> {
        self.psync_write(&[WriteRequest::new(offset, data)])?;
        Ok(())
    }

    /// Cumulative statistics (requests, bytes, device time, context switches).
    fn io_stats(&self) -> IoStats;

    /// Resets the cumulative statistics.
    fn reset_io_stats(&self);

    /// Advisory queue depth: how many concurrently outstanding *requests* this
    /// backend can usefully absorb before extra depth stops paying off — the
    /// device's NCQ depth for the simulated backend under psync I/O, the worker
    /// count for the file pool, `1` for backends that serialise tickets. Pipelined callers
    /// divide this by their per-batch request count to size their lookahead
    /// (see `PioConfig::pipeline_depth` in the core crate). `None` means the
    /// backend has no meaningful notion of queue depth; callers should fall
    /// back to a conservative default (double buffering).
    fn queue_depth_hint(&self) -> Option<usize> {
        None
    }

    /// Advisory hint that everything at or beyond byte `len` is dead: the log
    /// lifecycle calls this after a physical WAL compaction so backends with a
    /// real notion of file length ([`crate::FileThreadPoolIo`]) can return the
    /// space to the filesystem. Backends without one (the simulators, shared
    /// partitions) ignore it — the default is a no-op, and implementations must
    /// only ever *shrink* (growing is the writer's job).
    fn reclaim_to(&self, len: u64) -> IoResult<()> {
        let _ = len;
        Ok(())
    }
}

/// Forwarding so `Arc<Q>` can be used wherever a queue is expected.
impl<Q: IoQueue + ?Sized> IoQueue for Arc<Q> {
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        (**self).submit_read(reqs)
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        (**self).submit_write(reqs)
    }

    fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
        (**self).wait(ticket)
    }

    fn io_stats(&self) -> IoStats {
        (**self).io_stats()
    }

    fn reset_io_stats(&self) {
        (**self).reset_io_stats()
    }

    fn queue_depth_hint(&self) -> Option<usize> {
        (**self).queue_depth_hint()
    }

    fn reclaim_to(&self, len: u64) -> IoResult<()> {
        (**self).reclaim_to(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimPsyncIo;
    use ssd_sim::DeviceProfile;

    fn io() -> SimPsyncIo {
        SimPsyncIo::with_profile(DeviceProfile::P300, 64 * 1024 * 1024)
    }

    #[test]
    fn submit_wait_round_trip() {
        let io = io();
        let w = io.submit_write(&[WriteRequest::new(0, b"ticketed")]).unwrap();
        let done = io.wait(w).unwrap();
        assert!(done.buffers.is_empty());
        assert!(done.stats.elapsed_us > 0.0);
        let r = io.submit_read(&[ReadRequest::new(0, 8)]).unwrap();
        let done = io.wait(r).unwrap();
        assert_eq!(&done.buffers[0][..], b"ticketed");
    }

    #[test]
    fn empty_submissions_complete_immediately() {
        let io = io();
        let t = io.submit_read(&[]).unwrap();
        assert!(t.is_empty_batch());
        let c = io.wait(t).unwrap();
        assert!(c.buffers.is_empty());
        assert_eq!(c.stats, BatchStats::default());
        let t = io.submit_write(&[]).unwrap();
        assert_eq!(io.wait(t).unwrap(), Completion::default());
        assert_eq!(io.io_stats().batches, 0, "empty batches are not counted");
    }

    #[test]
    fn waiting_twice_is_impossible_and_unknown_tickets_error() {
        let io = io();
        // Forged ticket id: the backend has never issued it.
        let bogus = Ticket(123_456);
        assert!(io.wait(bogus).is_err());
    }

    #[test]
    fn overlapped_tickets_share_the_device_timeline() {
        // Two batches submitted back to back (both in flight) must finish sooner
        // together than the same two batches submitted strictly one after the
        // other — the in-flight window overlaps them on the device.
        let overlapped = io();
        let a: Vec<ReadRequest> = (0..16).map(|i| ReadRequest::new(i * 4096, 4096)).collect();
        let b: Vec<ReadRequest> = (16..32).map(|i| ReadRequest::new(i * 4096, 4096)).collect();
        let ta = overlapped.submit_read(&a).unwrap();
        let tb = overlapped.submit_read(&b).unwrap();
        overlapped.wait(ta).unwrap();
        overlapped.wait(tb).unwrap();
        let makespan = overlapped.device_time_us();

        let serial = io();
        let ta = serial.submit_read(&a).unwrap();
        serial.wait(ta).unwrap();
        let tb = serial.submit_read(&b).unwrap();
        serial.wait(tb).unwrap();
        let serial_us = serial.device_time_us();

        assert!(
            makespan < serial_us,
            "overlapped window ({makespan} µs) must beat serial submission ({serial_us} µs)"
        );
    }

    #[test]
    fn wait_reaps_in_any_order_and_each_completion_keeps_its_latency() {
        let io = io();
        // A small batch and then a big one share the window, so the small one
        // lands first; the big one is waited on first all the same.
        let small = [ReadRequest::new(1 << 20, 4096)];
        let big: Vec<ReadRequest> = (0..64).map(|i| ReadRequest::new(i * 4096, 4096)).collect();
        let t_small = io.submit_read(&small).unwrap();
        let t_big = io.submit_read(&big).unwrap();
        let c_big = io.wait(t_big).unwrap();
        assert_eq!(c_big.buffers.len(), 64);
        assert_eq!(io.io_stats().elapsed_us, 0.0, "the group has not drained yet");
        let c_small = io.wait(t_small).unwrap();
        assert_eq!(c_small.buffers.len(), 1);
        assert!(
            c_small.stats.elapsed_us < c_big.stats.elapsed_us,
            "small {} µs, big {} µs",
            c_small.stats.elapsed_us,
            c_big.stats.elapsed_us
        );
        assert_eq!(
            io.io_stats().elapsed_us,
            c_big.stats.elapsed_us,
            "the group's makespan is charged once"
        );
    }

    fn address(image: &Arc<[u8]>) -> *const u8 {
        Arc::as_ptr(image).cast()
    }

    /// Empties this thread's spare list, so a test sees only its own spares.
    fn no_spares() {
        SPARES.with(|spares| spares.borrow_mut().clear());
    }

    #[test]
    fn a_spare_comes_back_zeroed_at_the_same_address() {
        no_spares();
        let image: Arc<[u8]> = Arc::from(vec![7u8; 4093]);
        let at = address(&image);
        recycle_image(image);
        assert_eq!(spare_images(), 1);
        let again = zeroed_image(4093);
        assert_eq!(address(&again), at, "the spare's allocation is reused");
        assert!(
            again.iter().all(|&b| b == 0),
            "a spare is zeroed before it is handed out"
        );

        // A borrowed write's copy goes into a spare too, holding the new bytes.
        recycle_image(again);
        assert_eq!(spare_images(), 1);
        let copy = WriteRequest::new(0, &[9u8; 4093]).to_image();
        assert_eq!(address(&copy), at);
        assert!(copy.iter().all(|&b| b == 9));
    }

    #[test]
    fn a_shared_or_weakly_held_spare_is_never_kept() {
        no_spares();
        let held: Arc<[u8]> = Arc::from(vec![1u8; 4091]);
        recycle_image(Arc::clone(&held));
        assert_eq!(spare_images(), 0);
        let fresh = zeroed_image(4091);
        assert_ne!(address(&fresh), address(&held), "a held image is not handed out");
        assert!(held.iter().all(|&b| b == 1), "nor are its bytes touched");
        assert_eq!(Arc::strong_count(&held), 1, "the second reference was dropped");

        let watched: Arc<[u8]> = Arc::from(vec![2u8; 4091]);
        let weak = Arc::downgrade(&watched);
        recycle_image(watched);
        assert_eq!(spare_images(), 0);
        assert!(weak.upgrade().is_none(), "an image with a Weak is dropped, not kept");
    }

    #[test]
    fn a_spare_of_another_length_is_never_handed_out() {
        no_spares();
        let image = zeroed_image(100);
        let at = address(&image);
        recycle_image(image);
        assert_eq!(spare_images(), 1);
        let longer = zeroed_image(101);
        assert_eq!(longer.len(), 101);
        assert_ne!(address(&longer), at);
        let shorter = WriteRequest::new(0, &[3u8; 99]).to_image();
        assert_eq!(&shorter[..], &[3u8; 99]);
        assert_ne!(address(&shorter), at);
        assert_eq!(spare_images(), 1, "the spare waited for its length");
        assert_eq!(address(&zeroed_image(100)), at);
    }

    #[test]
    fn the_spare_list_holds_at_most_its_bound() {
        no_spares();
        let images: Vec<Arc<[u8]>> = (0..SPARE_IMAGES + 6).map(|_| zeroed_image(64)).collect();
        let addresses: Vec<*const u8> = images.iter().map(address).collect();
        images.into_iter().for_each(recycle_image);
        assert_eq!(spare_images(), SPARE_IMAGES);
        // The first ones were kept, the rest dropped.
        let taken: Vec<Arc<[u8]>> = (0..SPARE_IMAGES).map(|_| zeroed_image(64)).collect();
        assert!(taken
            .iter()
            .all(|image| addresses[..SPARE_IMAGES].contains(&address(image))));
        assert_eq!(spare_images(), 0);
    }

    #[test]
    fn arc_forwarding_works() {
        let io = Arc::new(io());
        let t = io.submit_write(&[WriteRequest::new(0, b"arc")]).unwrap();
        io.wait(t).unwrap();
        assert_eq!(io.io_stats().writes, 1);
        io.reset_io_stats();
        assert_eq!(io.io_stats().writes, 0);
    }
}
