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
//!   `io_getevents` half with a full wait;
//! * [`IoQueue::try_complete`] polls without blocking, so one driver thread can keep
//!   several tickets in flight and reap completions as they land.
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
use std::sync::Arc;

/// Ticket id reserved for empty submissions, which complete immediately and are
/// never entered into a backend's in-flight table.
pub(crate) const EMPTY_TICKET: u64 = u64::MAX;

/// Handle to one in-flight batch, returned by [`IoQueue::submit_read`] /
/// [`IoQueue::submit_write`] and consumed by [`IoQueue::wait`] /
/// [`IoQueue::try_complete`].
///
/// Tickets are deliberately neither `Copy` nor `Clone`: exactly one completion
/// exists per submission, and consuming the ticket to observe it makes
/// double-waits a type error rather than a runtime one.
#[derive(Debug, PartialEq, Eq, Hash)]
#[must_use = "an in-flight batch must be waited on (or polled) to observe its completion"]
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
    /// The backend fills each image and hands over its only reference, so a
    /// caller may keep it (a cache admits it as is) or change it in place
    /// through [`Arc::make_mut`] without a copy.
    pub buffers: Vec<Arc<[u8]>>,
    /// Size and timing of the batch. For batches that overlapped with other
    /// in-flight tickets, `elapsed_us` is the batch's completion latency measured
    /// from the shared window start — queueing behind the other tickets' device
    /// work is visible in it.
    pub stats: BatchStats,
}

/// A fresh, unshared, zero-filled image of `len` bytes, in one allocation —
/// what a backend fills in place (through [`Arc::get_mut`]) before handing it
/// out in a [`Completion`], and what a writer encodes a page into before it
/// submits the image with [`WriteRequest::shared`].
pub fn zeroed_image(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0u8, len).collect()
}

/// Result of a non-blocking [`IoQueue::try_complete`] poll.
#[derive(Debug)]
pub enum TryComplete {
    /// The batch has completed; the ticket is consumed.
    Ready(Completion),
    /// The batch is still in flight (other tickets complete before it); the ticket
    /// is handed back so the caller can poll again or [`IoQueue::wait`].
    Pending(Ticket),
}

impl TryComplete {
    /// Unwraps a completion, panicking if the batch is still pending.
    pub fn expect_ready(self, msg: &str) -> Completion {
        match self {
            TryComplete::Ready(c) => c,
            TryComplete::Pending(_) => panic!("{msg}"),
        }
    }

    /// Whether the batch has completed.
    pub fn is_ready(&self) -> bool {
        matches!(self, TryComplete::Ready(_))
    }
}

/// The submission/completion I/O queue contract.
///
/// 1. A submission delivers a *set* of I/Os of one kind (reads and writes are never
///    mingled within a call — Principle 3 of the paper) and returns a [`Ticket`]
///    without blocking.
/// 2. The set is kept together down to the device, so its command queue sees the
///    whole batch in one scheduling window; sets submitted while others are in
///    flight share the device and contend with them.
/// 3. Completion is observed explicitly, by blocking ([`IoQueue::wait`]) or by
///    polling ([`IoQueue::try_complete`]). Completions may be reaped in any order.
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

    /// Polls a ticket without blocking: [`TryComplete::Ready`] consumes it,
    /// [`TryComplete::Pending`] hands it back. Simulated backends report tickets
    /// ready in completion-time order, so a polling driver reaps them exactly as
    /// they would land on real hardware.
    fn try_complete(&self, ticket: Ticket) -> IoResult<TryComplete>;

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

    fn try_complete(&self, ticket: Ticket) -> IoResult<TryComplete> {
        (**self).try_complete(ticket)
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
        assert!(io.try_complete(t).unwrap().is_ready());
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
    fn try_complete_reaps_in_completion_order() {
        let io = io();
        // A small batch followed by a large one sharing the window: the small one
        // lands first (its requests are scheduled ahead), so polling the large
        // ticket reports it pending until the small one has been reaped.
        let small = [ReadRequest::new(1 << 20, 4096)];
        let big: Vec<ReadRequest> = (0..64).map(|i| ReadRequest::new(i * 4096, 4096)).collect();
        let t_small = io.submit_read(&small).unwrap();
        let t_big = io.submit_read(&big).unwrap();
        let polled = io.try_complete(t_big).unwrap();
        let t_big = match polled {
            TryComplete::Pending(t) => t,
            TryComplete::Ready(_) => panic!("the big batch cannot land before the small one"),
        };
        let c_small = io
            .try_complete(t_small)
            .unwrap()
            .expect_ready("small batch lands first");
        assert_eq!(c_small.buffers.len(), 1);
        let c_big = io
            .try_complete(t_big)
            .unwrap()
            .expect_ready("big batch is last, so it is ready");
        assert_eq!(c_big.buffers.len(), 64);
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
