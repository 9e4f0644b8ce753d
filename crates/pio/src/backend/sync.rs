//! Conventional synchronous I/O ([`Discipline::Sync`]): every request is a
//! separate device submission.
//!
//! This is the I/O pattern of a textbook B+-tree (read a node, inspect it, read the
//! next node). It deliberately cannot exploit channel-level parallelism and is the
//! baseline against which psync I/O is compared throughout the paper. Even when
//! handed a group, a synchronous caller issues the requests one at a time.
//!
//! [`Discipline::Sync`]: super::psync::Discipline::Sync

use ssd_sim::{SsdDevice, SsdRequest};

/// Services `reqs` one after another from `start_us`, each as its own device
/// submission, and returns when the last completes.
pub(super) fn one_at_a_time(device: &SsdDevice, start_us: f64, reqs: &[SsdRequest]) -> f64 {
    let mut t = start_us;
    for req in reqs {
        t += device.service_batch_at(t, std::slice::from_ref(req)).elapsed_us;
    }
    t
}

#[cfg(test)]
mod tests {
    use crate::{Discipline, IoQueue, ReadRequest, SimPsyncIo};
    use ssd_sim::DeviceProfile;

    fn sync(profile: DeviceProfile, capacity_bytes: u64) -> SimPsyncIo {
        SimPsyncIo::new(profile.build(), capacity_bytes, Discipline::Sync)
    }

    #[test]
    fn round_trip() {
        let io = sync(DeviceProfile::F120, 16 * 1024 * 1024);
        io.write_at(8192, b"sync").unwrap();
        assert_eq!(&io.read_at(8192, 4).unwrap()[..], b"sync");
    }

    #[test]
    fn sync_is_slower_than_psync_for_batches() {
        let cap = 64 * 1024 * 1024;
        let sync = sync(DeviceProfile::P300, cap);
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
        let io = sync(DeviceProfile::F120, 16 * 1024 * 1024);
        let reqs: Vec<ReadRequest> = (0..10).map(|i| ReadRequest::new(i * 4096, 4096)).collect();
        io.psync_read(&reqs).unwrap();
        assert_eq!(io.io_stats().context_switches, 20);
    }
}
