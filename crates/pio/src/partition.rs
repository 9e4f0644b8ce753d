//! An offset-translating partition view of a shared [`IoQueue`].
//!
//! The paper's Figure 4(b) layout gives every index its own file — and the engine's
//! shared-device topology puts every shard's "file" on **one** device instead, as a
//! disjoint address range. [`PartitionIo`] is that address range: it presents the
//! full [`IoQueue`] submission/completion contract over `[base, base + capacity)` of
//! an inner queue, translating request offsets on the way down and keeping its own
//! per-partition [`IoStats`] so the device work and completion latency each shard
//! *experienced* stay attributable even though the device totals are shared.
//!
//! Several partitions of one backend contend exactly like several submitters on one
//! SSD: their in-flight tickets join the inner backend's shared scheduling window,
//! so a partition's completion latency includes queueing behind its neighbours —
//! which is the host-interface/channel contention the shared-device engine topology
//! is built to measure.
//!
//! A partition keeps no per-ticket state: its tickets are the inner queue's, and a
//! completion says what it was — one buffer per read request, none for a write —
//! so the partition attributes each batch when it is reaped. Tickets issued by a
//! partition **must** be redeemed through the same partition: redeeming through a
//! sibling partition of the same backend still completes the I/O, but charges the
//! batch to the sibling's statistics.

use crate::error::{IoError, IoResult};
use crate::queue::{Completion, IoQueue, Ticket};
use crate::request::{ReadRequest, WriteRequest};
use crate::stats::IoStats;
use parking_lot::Mutex;
use std::sync::Arc;

/// A contiguous, offset-translated partition of a shared [`IoQueue`].
pub struct PartitionIo {
    inner: Arc<dyn IoQueue>,
    base: u64,
    capacity: u64,
    /// Per-partition cumulative statistics (the inner queue keeps the device-wide
    /// totals).
    stats: Mutex<IoStats>,
}

impl std::fmt::Debug for PartitionIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionIo")
            .field("base", &self.base)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl PartitionIo {
    /// Creates a partition covering `[base, base + capacity)` of `inner`.
    /// Partition-local offsets start at 0.
    pub fn new(inner: Arc<dyn IoQueue>, base: u64, capacity: u64) -> Self {
        assert!(capacity > 0, "a partition must have a non-zero capacity");
        Self {
            inner,
            base,
            capacity,
            stats: Mutex::new(IoStats::default()),
        }
    }

    /// Rejects requests that escape the partition *before* they reach the shared
    /// backend, reporting the partition-local capacity (an inner-queue bounds
    /// error would leak a neighbouring partition's address arithmetic).
    fn check(&self, offset: u64, len: u64) -> IoResult<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.capacity) {
            return Err(IoError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }
}

impl IoQueue for PartitionIo {
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        for r in reqs {
            self.check(r.offset, r.len as u64)?;
        }
        let translated: Vec<ReadRequest> = reqs
            .iter()
            .map(|r| ReadRequest::new(self.base + r.offset, r.len))
            .collect();
        self.inner.submit_read(&translated)
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        for r in reqs {
            self.check(r.offset, r.data.len() as u64)?;
        }
        let translated: Vec<WriteRequest<'_>> = reqs.iter().map(|r| r.at(self.base + r.offset)).collect();
        self.inner.submit_write(&translated)
    }

    /// Folds the reaped batch into the partition statistics: its reads are its
    /// buffers, the rest of its requests are writes, and an empty batch counts
    /// for nothing. `elapsed_us` is the batch's completion latency from the
    /// shared window start, so queueing behind sibling partitions' in-flight work
    /// is visible per partition; the per-partition elapsed times of overlapped
    /// batches therefore overlap, and their sum can exceed the device makespan.
    fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
        let completion = self.inner.wait(ticket)?;
        let stats = &completion.stats;
        if stats.requests > 0 {
            let reads = completion.buffers.len();
            self.stats
                .lock()
                .absorb(reads as u64, (stats.requests - reads) as u64, stats);
        }
        Ok(completion)
    }

    fn io_stats(&self) -> IoStats {
        *self.stats.lock()
    }

    fn reset_io_stats(&self) {
        *self.stats.lock() = IoStats::default();
    }

    /// A partition is a window onto the shared backend's queue, so its useful
    /// depth is whatever the backend reports (siblings contending for it is the
    /// same contention any shared-queue submitter faces).
    fn queue_depth_hint(&self) -> Option<usize> {
        self.inner.queue_depth_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoQueue, SimPsyncIo};
    use ssd_sim::DeviceProfile;

    fn device(capacity: u64) -> Arc<dyn IoQueue> {
        Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, capacity))
    }

    #[test]
    fn offsets_translate_and_partitions_are_disjoint() {
        let dev = device(4 << 20);
        let a = PartitionIo::new(Arc::clone(&dev), 0, 1 << 20);
        let b = PartitionIo::new(Arc::clone(&dev), 1 << 20, 1 << 20);
        a.write_at(0, b"partition-a").unwrap();
        b.write_at(0, b"partition-b").unwrap();
        // Partition-local offset 0 maps to different device addresses.
        assert_eq!(&a.read_at(0, 11).unwrap()[..], b"partition-a");
        assert_eq!(&b.read_at(0, 11).unwrap()[..], b"partition-b");
        assert_eq!(&dev.read_at(0, 11).unwrap()[..], b"partition-a");
        assert_eq!(&dev.read_at(1 << 20, 11).unwrap()[..], b"partition-b");
    }

    #[test]
    fn bounds_are_partition_local() {
        let dev = device(4 << 20);
        let p = PartitionIo::new(dev, 1 << 20, 4096);
        // In range.
        p.write_at(0, &[7u8; 4096]).unwrap();
        // One byte past the partition, although well inside the device.
        let err = p.write_at(1, &[7u8; 4096]).unwrap_err();
        match err {
            IoError::OutOfBounds { capacity, .. } => assert_eq!(capacity, 4096, "partition-local capacity"),
            other => panic!("expected OutOfBounds, got {other}"),
        }
        assert!(p.read_at(4096, 1).is_err());
        // Overflow-proof.
        assert!(p.read_at(u64::MAX, 2).is_err());
    }

    #[test]
    fn per_partition_stats_attribute_reads_and_writes() {
        let dev = device(4 << 20);
        let a = PartitionIo::new(Arc::clone(&dev), 0, 1 << 20);
        let b = PartitionIo::new(Arc::clone(&dev), 1 << 20, 1 << 20);
        let writes: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4096]).collect();
        let reqs: Vec<WriteRequest> = writes
            .iter()
            .enumerate()
            .map(|(i, d)| WriteRequest::new(i as u64 * 4096, d))
            .collect();
        a.psync_write(&reqs).unwrap();
        b.psync_read(&[ReadRequest::new(0, 4096)]).unwrap();
        let sa = a.io_stats();
        let sb = b.io_stats();
        assert_eq!((sa.writes, sa.reads), (4, 0));
        assert_eq!((sb.writes, sb.reads), (0, 1));
        assert!(sa.elapsed_us > 0.0 && sb.elapsed_us > 0.0);
        assert_eq!(sa.max_batch, 4);
        // The inner queue holds the device-wide totals.
        assert_eq!(dev.io_stats().writes, 4);
        assert_eq!(dev.io_stats().reads, 1);

        // An empty batch counts for nothing.
        a.psync_read(&[]).unwrap();
        a.psync_write(&[]).unwrap();
        assert_eq!(a.io_stats(), sa);

        a.reset_io_stats();
        assert_eq!(a.io_stats().writes, 0);
        assert_eq!(dev.io_stats().writes, 4, "partition reset leaves the device totals");
    }

    #[test]
    fn overlapped_partitions_contend_on_the_shared_device() {
        // Two partitions holding tickets in flight together: each batch's
        // completion latency includes the shared window, so per-partition elapsed
        // sums exceed what either batch costs alone on an idle device.
        let dev = device(8 << 20);
        let a = PartitionIo::new(Arc::clone(&dev), 0, 4 << 20);
        let b = PartitionIo::new(Arc::clone(&dev), 4 << 20, 4 << 20);
        let reqs: Vec<ReadRequest> = (0..16).map(|i| ReadRequest::new(i * 4096, 4096)).collect();
        let ta = a.submit_read(&reqs).unwrap();
        let tb = b.submit_read(&reqs).unwrap();
        let ca = a.wait(ta).unwrap();
        let cb = b.wait(tb).unwrap();

        // The same batch alone on a fresh device.
        let solo = PartitionIo::new(device(8 << 20), 0, 4 << 20);
        let ts = solo.submit_read(&reqs).unwrap();
        let cs = solo.wait(ts).unwrap();
        let contended = ca.stats.elapsed_us.max(cb.stats.elapsed_us);
        assert!(
            contended > cs.stats.elapsed_us,
            "sharing the window must cost latency: {contended} vs solo {}",
            cs.stats.elapsed_us
        );
    }

    /// An inner queue that issues tickets but fails every completion — the
    /// shape of a transient backend error surfacing at reap time.
    struct FailingWaits(Mutex<u64>);

    impl IoQueue for FailingWaits {
        fn submit_read(&self, _reqs: &[ReadRequest]) -> IoResult<Ticket> {
            let mut next = self.0.lock();
            *next += 1;
            Ok(Ticket(*next))
        }

        fn submit_write(&self, _reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
            self.submit_read(&[])
        }

        fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
            Err(IoError::UnknownTicket(ticket.id()))
        }

        fn io_stats(&self) -> IoStats {
            IoStats::default()
        }

        fn reset_io_stats(&self) {}
    }

    #[test]
    fn failed_completions_do_not_leak_inflight_entries() {
        // A wait that fails consumes its ticket and counts for nothing.
        let failing = PartitionIo::new(Arc::new(FailingWaits(Mutex::new(0))), 0, 1 << 20);
        let t = failing.submit_read(&[ReadRequest::new(0, 4096)]).unwrap();
        assert!(failing.wait(t).is_err());
        let t = failing.submit_write(&[WriteRequest::new(0, &[1u8; 4096])]).unwrap();
        assert!(failing.wait(t).is_err());
        assert_eq!(failing.io_stats(), IoStats::default());

        // On a real device, a failed wait leaves nothing behind that a later
        // batch would be charged with: the next read counts as exactly one read.
        let p = PartitionIo::new(device(1 << 20), 0, 1 << 20);
        assert!(matches!(p.wait(Ticket(12345)), Err(IoError::UnknownTicket(12345))));
        assert_eq!(p.io_stats(), IoStats::default());
        p.psync_read(&[ReadRequest::new(0, 4096)]).unwrap();
        let s = p.io_stats();
        assert_eq!((s.reads, s.writes, s.batches), (1, 0, 1));
    }

    #[test]
    fn empty_batches_pass_through() {
        let p = PartitionIo::new(device(1 << 20), 0, 1 << 20);
        let t = p.submit_read(&[]).unwrap();
        assert!(t.is_empty_batch());
        p.wait(t).unwrap();
        assert_eq!(p.io_stats().batches, 0);
    }
}
