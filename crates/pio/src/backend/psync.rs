//! The faithful psync I/O backend: one call → one NCQ window on the simulated SSD.

use super::{Discipline, SimShared};
use crate::error::IoResult;
use crate::queue::{Completion, IoQueue, Ticket, TryComplete};
use crate::request::{ReadRequest, WriteRequest};
use crate::stats::IoStats;
use ssd_sim::SsdConfig;

/// Context switches charged per psync submission: one to sleep while the batch is
/// in flight, one to wake up when the last completion arrives.
const SWITCHES_PER_CALL: u64 = 2;

/// psync I/O over the simulated SSD.
///
/// All requests of one submission are delivered to the device as a single batch, so
/// the device's scheduler sees them in the same NCQ window and can spread them over
/// its channels — exactly the behaviour the paper's wrapper around `io_submit` /
/// `io_getevents` is designed to obtain. Batches submitted while other tickets are
/// in flight join the same scheduling window (common start time) and contend for
/// the shared device.
#[derive(Debug)]
pub struct SimPsyncIo {
    shared: SimShared,
}

impl SimPsyncIo {
    /// Creates a backend over a device built from `config`, with `capacity_bytes` of
    /// addressable storage.
    pub fn new(config: SsdConfig, capacity_bytes: u64) -> Self {
        Self {
            shared: SimShared::new(config, capacity_bytes, Discipline::Batch),
        }
    }

    /// Convenience constructor from a named device profile.
    pub fn with_profile(profile: ssd_sim::DeviceProfile, capacity_bytes: u64) -> Self {
        Self::new(profile.build(), capacity_bytes)
    }

    /// Simulated time accumulated by the underlying device (µs).
    pub fn device_time_us(&self) -> f64 {
        self.shared.device.lock().now_us()
    }
}

impl IoQueue for SimPsyncIo {
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        self.shared.submit_read(reqs, SWITCHES_PER_CALL)
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        self.shared.submit_write(reqs, SWITCHES_PER_CALL)
    }

    fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
        self.shared.wait(ticket)
    }

    fn try_complete(&self, ticket: Ticket) -> IoResult<TryComplete> {
        self.shared.try_complete(ticket)
    }

    fn io_stats(&self) -> IoStats {
        self.shared.stats()
    }

    fn reset_io_stats(&self) {
        self.shared.reset_stats();
    }

    /// psync I/O reports the simulated device's NCQ depth: tickets in flight
    /// together share a scheduling window of that many requests, so a pipeline
    /// gains up to `ncq_depth / batch_size` overlapped batches.
    fn queue_depth_hint(&self) -> Option<usize> {
        Some(self.shared.queue_depth_hint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoQueue;
    use ssd_sim::DeviceProfile;

    fn io() -> SimPsyncIo {
        SimPsyncIo::with_profile(DeviceProfile::P300, 64 * 1024 * 1024)
    }

    #[test]
    fn round_trip_single() {
        let io = io();
        io.write_at(4096, b"pio-btree").unwrap();
        assert_eq!(&io.read_at(4096, 9).unwrap()[..], b"pio-btree");
    }

    #[test]
    fn round_trip_batch_preserves_order() {
        let io = io();
        let writes: Vec<(u64, Vec<u8>)> = (0..32u64)
            .map(|i| (i * 8192, format!("page-{i:03}").into_bytes()))
            .collect();
        let wr: Vec<WriteRequest> = writes.iter().map(|(o, d)| WriteRequest::new(*o, d)).collect();
        io.psync_write(&wr).unwrap();

        let rr: Vec<ReadRequest> = writes.iter().map(|(o, d)| ReadRequest::new(*o, d.len())).collect();
        let (bufs, stats) = io.psync_read(&rr).unwrap();
        assert_eq!(bufs.len(), 32);
        for (buf, (_, d)) in bufs.iter().zip(&writes) {
            assert_eq!(&buf[..], d);
        }
        assert_eq!(stats.requests, 32);
        assert!(stats.elapsed_us > 0.0);
    }

    #[test]
    fn batch_is_faster_than_request_at_a_time() {
        let batched = io();
        let serial = io();
        let reqs: Vec<ReadRequest> = (0..32).map(|i| ReadRequest::new(i * 4096, 4096)).collect();
        let (_, b) = batched.psync_read(&reqs).unwrap();
        let mut serial_us = 0.0;
        for r in &reqs {
            let (_, s) = serial.psync_read(std::slice::from_ref(r)).unwrap();
            serial_us += s.elapsed_us;
        }
        assert!(b.elapsed_us * 2.0 < serial_us, "psync batch should be much faster");
    }

    #[test]
    fn context_switches_are_per_call_not_per_request() {
        let io = io();
        let reqs: Vec<ReadRequest> = (0..64).map(|i| ReadRequest::new(i * 4096, 4096)).collect();
        io.psync_read(&reqs).unwrap();
        assert_eq!(io.io_stats().context_switches, 2);
        assert_eq!(io.io_stats().reads, 64);
        assert_eq!(io.io_stats().max_batch, 64);
    }

    #[test]
    fn empty_batches_are_noops() {
        let io = io();
        let (bufs, b) = io.psync_read(&[]).unwrap();
        assert!(bufs.is_empty());
        assert_eq!(b.requests, 0);
        assert_eq!(io.psync_write(&[]).unwrap().requests, 0);
        assert_eq!(io.io_stats().batches, 0);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let io = SimPsyncIo::with_profile(DeviceProfile::F120, 1024 * 1024);
        assert!(io.read_at(2 * 1024 * 1024, 10).is_err());
    }

    /// Every image a simulated backend's completion carries is its only
    /// reference: a fault flip or a caller's `Arc::make_mut` changes it in
    /// place, never copies it, and never reaches the device's bytes.
    #[test]
    fn read_buffers_are_unshared() {
        use crate::{FileLayout, SimSyncIo, SimThreadedIo, TryComplete};
        use std::sync::Arc;
        const CAP: u64 = 16 * 1024 * 1024;
        let backends: [Box<dyn IoQueue>; 3] = [
            Box::new(io()),
            Box::new(SimSyncIo::with_profile(DeviceProfile::P300, CAP)),
            Box::new(SimThreadedIo::with_profile(
                DeviceProfile::P300,
                CAP,
                FileLayout::SharedFile,
            )),
        ];
        for io in &backends {
            io.write_at(8192, &[5u8; 8192]).unwrap();
            // Two requests for the same bytes, a short one, and one never written.
            let reqs = [
                ReadRequest::new(8192, 8192),
                ReadRequest::new(8192, 8192),
                ReadRequest::new(8200, 3),
                ReadRequest::new(1 << 20, 4096),
            ];
            let (bufs, _) = io.psync_read(&reqs).unwrap();
            let first = io.submit_read(&reqs).unwrap();
            let second = io.submit_read(&reqs[..2]).unwrap();
            let polled = match io.try_complete(second).unwrap() {
                TryComplete::Ready(done) => done,
                TryComplete::Pending(second) => io.wait(second).unwrap(),
            };
            let waited = io.wait(first).unwrap();
            let all = bufs.iter().chain(&polled.buffers).chain(&waited.buffers);
            assert_eq!(all.clone().count(), 10);
            for image in all {
                assert_eq!(Arc::strong_count(image), 1, "a completion's image is unshared");
            }
            assert_eq!(&bufs[2][..], [5u8; 3]);
            assert!(bufs[3].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn device_time_accumulates() {
        let io = io();
        assert_eq!(io.device_time_us(), 0.0);
        io.write_at(0, &[1u8; 4096]).unwrap();
        assert!(io.device_time_us() > 0.0);
    }
}
