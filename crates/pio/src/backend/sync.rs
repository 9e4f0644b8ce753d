//! Conventional synchronous I/O: every request is a separate device submission.
//!
//! This is the I/O pattern of a textbook B+-tree (read a node, inspect it, read the
//! next node). It deliberately cannot exploit channel-level parallelism and is the
//! baseline against which psync I/O is compared throughout the paper.

use super::{Discipline, SimShared};
use crate::error::IoResult;
use crate::queue::{Completion, IoQueue, Ticket, TryComplete};
use crate::request::{ReadRequest, WriteRequest};
use crate::stats::IoStats;
use ssd_sim::SsdConfig;

/// Context switches charged per synchronous request (sleep + wake).
const SWITCHES_PER_REQUEST: u64 = 2;

/// Synchronous one-at-a-time I/O over the simulated SSD. Even when handed a group,
/// a synchronous caller issues the requests one at a time, and submissions
/// serialise behind whatever is already in flight.
#[derive(Debug)]
pub struct SimSyncIo {
    shared: SimShared,
}

impl SimSyncIo {
    /// Creates a backend over a device built from `config`, with `capacity_bytes` of
    /// addressable storage.
    pub fn new(config: SsdConfig, capacity_bytes: u64) -> Self {
        Self {
            shared: SimShared::new(config, capacity_bytes, Discipline::Serial),
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

impl IoQueue for SimSyncIo {
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        self.shared.submit_read(reqs, SWITCHES_PER_REQUEST * reqs.len() as u64)
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        self.shared.submit_write(reqs, SWITCHES_PER_REQUEST * reqs.len() as u64)
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

    /// Synchronous I/O services one request at a time and serialises tickets
    /// behind each other, so extra pipeline depth buys nothing: the useful
    /// queue depth is 1.
    fn queue_depth_hint(&self) -> Option<usize> {
        Some(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::psync::SimPsyncIo;
    use crate::IoQueue;
    use ssd_sim::DeviceProfile;

    #[test]
    fn round_trip() {
        let io = SimSyncIo::with_profile(DeviceProfile::F120, 16 * 1024 * 1024);
        io.write_at(8192, b"sync").unwrap();
        assert_eq!(&io.read_at(8192, 4).unwrap()[..], b"sync");
    }

    #[test]
    fn sync_is_slower_than_psync_for_batches() {
        let cap = 64 * 1024 * 1024;
        let sync = SimSyncIo::with_profile(DeviceProfile::P300, cap);
        let psync = SimPsyncIo::with_profile(DeviceProfile::P300, cap);
        let reqs: Vec<ReadRequest> = (0..32).map(|i| ReadRequest::new(i * 4096, 4096)).collect();
        let (_, s) = sync.psync_read(&reqs).unwrap();
        let (_, p) = psync.psync_read(&reqs).unwrap();
        assert!(
            s.elapsed_us > p.elapsed_us * 3.0,
            "sync {} vs psync {}",
            s.elapsed_us,
            p.elapsed_us
        );
    }

    #[test]
    fn context_switches_scale_with_requests() {
        let io = SimSyncIo::with_profile(DeviceProfile::F120, 16 * 1024 * 1024);
        let reqs: Vec<ReadRequest> = (0..10).map(|i| ReadRequest::new(i * 4096, 4096)).collect();
        io.psync_read(&reqs).unwrap();
        assert_eq!(io.io_stats().context_switches, 20);
    }
}
