//! "Parallel processing" emulation: one thread per outstanding I/O.
//!
//! Section 2.3 / Figure 4 of the paper compares psync I/O against the traditional
//! way of creating outstanding I/Os — spawning one thread (or process) per request,
//! each issuing a synchronous call. Two effects make that approach inferior:
//!
//! 1. **Shared-file write serialisation.** POSIX requires write-ordering for
//!    synchronous I/O; most file systems implement it with a per-file reader-writer
//!    lock, so concurrent synchronous *writes* to the same file cannot overlap
//!    (Figure 4 a). With one file per thread they can (Figure 4 b).
//! 2. **Context switches.** Every blocking call sleeps and wakes its thread, and the
//!    scheduler must also switch between the worker threads; the paper measures an
//!    order of magnitude more context switches than psync I/O at OutStd 32
//!    (Figure 4 c).
//!
//! [`Discipline::Threads`] models both effects on top of the simulated device, so
//! the Figure-4 comparison can be regenerated deterministically without spawning
//! real threads: the layout below decides which requests of a submission
//! overlap, and the discipline charges the context switches.
//!
//! [`Discipline::Threads`]: super::psync::Discipline::Threads

use ssd_sim::{SsdDevice, SsdRequest};

/// How the emulated worker threads map their I/O onto files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileLayout {
    /// All threads operate on one shared file: concurrent synchronous writes are
    /// serialised by the per-file write-ordering lock, and reads cannot overlap
    /// writes.
    SharedFile,
    /// Each thread has its own file: requests overlap freely, as with psync I/O.
    SeparateFiles,
}

/// Elapsed time of one thread-per-I/O submission under `layout`, starting at
/// `start_us`:
///
/// * `SeparateFiles`: the emulated threads genuinely overlap — the whole set is one
///   device batch;
/// * `SharedFile`: maximal runs of consecutive reads are batched (shared lock), but
///   every write is an exclusive section and is serviced on its own.
pub(super) fn elapsed_us(device: &SsdDevice, layout: FileLayout, start_us: f64, sim_reqs: &[SsdRequest]) -> f64 {
    match layout {
        FileLayout::SeparateFiles => device.service_batch_at(start_us, sim_reqs).elapsed_us,
        FileLayout::SharedFile => {
            if sim_reqs.iter().all(|r| r.kind.is_read()) {
                // Readers share the lock: they still overlap.
                return device.service_batch_at(start_us, sim_reqs).elapsed_us;
            }
            let mut t = start_us;
            let mut run: Vec<SsdRequest> = Vec::new();
            for req in sim_reqs {
                if req.kind.is_read() {
                    run.push(*req);
                } else {
                    if !run.is_empty() {
                        t += device.service_batch_at(t, &run).elapsed_us;
                        run.clear();
                    }
                    // Exclusive writer: nothing overlaps with it.
                    t += device.service_batch_at(t, std::slice::from_ref(req)).elapsed_us;
                }
            }
            if !run.is_empty() {
                t += device.service_batch_at(t, &run).elapsed_us;
            }
            t - start_us
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Discipline, IoQueue, ReadRequest, SimPsyncIo, WriteRequest};
    use ssd_sim::DeviceProfile;

    const CAP: u64 = 64 * 1024 * 1024;

    fn threads(profile: DeviceProfile, layout: FileLayout) -> SimPsyncIo {
        SimPsyncIo::new(profile.build(), CAP, Discipline::Threads(layout))
    }

    #[test]
    fn round_trip_shared_file() {
        let io = threads(DeviceProfile::F120, FileLayout::SharedFile);
        io.write_at(0, b"threads").unwrap();
        assert_eq!(&io.read_at(0, 7).unwrap()[..], b"threads");
        assert_eq!(io.discipline(), Discipline::Threads(FileLayout::SharedFile));
    }

    #[test]
    fn shared_file_writes_do_not_overlap() {
        let shared = threads(DeviceProfile::P300, FileLayout::SharedFile);
        let separate = threads(DeviceProfile::P300, FileLayout::SeparateFiles);
        let payload = vec![7u8; 4096];
        let writes: Vec<WriteRequest> = (0..32).map(|i| WriteRequest::new(i * 8192, &payload)).collect();
        let s = shared.psync_write(&writes).unwrap();
        let p = separate.psync_write(&writes).unwrap();
        assert!(
            s.elapsed_us > p.elapsed_us * 3.0,
            "shared-file writes must serialise: shared={} separate={}",
            s.elapsed_us,
            p.elapsed_us
        );
    }

    #[test]
    fn separate_files_match_psync_for_writes() {
        let threaded = threads(DeviceProfile::P300, FileLayout::SeparateFiles);
        let psync = SimPsyncIo::with_profile(DeviceProfile::P300, CAP);
        let payload = vec![3u8; 4096];
        let writes: Vec<WriteRequest> = (0..32).map(|i| WriteRequest::new(i * 8192, &payload)).collect();
        let t = threaded.psync_write(&writes).unwrap();
        let p = psync.psync_write(&writes).unwrap();
        let ratio = t.elapsed_us / p.elapsed_us;
        assert!(
            (0.8..1.25).contains(&ratio),
            "expected similar performance, ratio={ratio}"
        );
    }

    #[test]
    fn reads_overlap_even_on_a_shared_file() {
        let shared = threads(DeviceProfile::P300, FileLayout::SharedFile);
        let psync = SimPsyncIo::with_profile(DeviceProfile::P300, CAP);
        let reads: Vec<ReadRequest> = (0..32).map(|i| ReadRequest::new(i * 8192, 4096)).collect();
        let (_, s) = shared.psync_read(&reads).unwrap();
        let (_, p) = psync.psync_read(&reads).unwrap();
        let ratio = s.elapsed_us / p.elapsed_us;
        assert!((0.8..1.25).contains(&ratio), "reads share the lock, ratio={ratio}");
    }

    #[test]
    fn context_switch_gap_is_an_order_of_magnitude() {
        let threaded = threads(DeviceProfile::F120, FileLayout::SharedFile);
        let psync = SimPsyncIo::with_profile(DeviceProfile::F120, CAP);
        let reads: Vec<ReadRequest> = (0..32).map(|i| ReadRequest::new(i * 8192, 4096)).collect();
        threaded.psync_read(&reads).unwrap();
        psync.psync_read(&reads).unwrap();
        assert!(threaded.io_stats().context_switches >= 10 * psync.io_stats().context_switches);
    }

    /// Figure 4's mixed round: the threads serve it interleaved, psync I/O as a
    /// read batch and then a write batch.
    #[test]
    fn mixed_helpers_cover_interleaved_workloads() {
        let threaded = threads(DeviceProfile::P300, FileLayout::SharedFile);
        let psync = SimPsyncIo::with_profile(DeviceProfile::P300, CAP);
        let mut reqs = Vec::new();
        for i in 0..32u64 {
            reqs.push(SsdRequest::read(i * 16384, 4096));
            reqs.push(SsdRequest::write(i * 16384 + 8192, 4096));
        }
        let t = threaded.serve_interleaved(&reqs);
        let reads: Vec<ReadRequest> = (0..32).map(|i| ReadRequest::new(i * 16384, 4096)).collect();
        let payload = [0u8; 4096];
        let writes: Vec<WriteRequest> = (0..32).map(|i| WriteRequest::new(i * 16384 + 8192, &payload)).collect();
        let p = psync.psync_read(&reads).unwrap().1.elapsed_us + psync.psync_write(&writes).unwrap().elapsed_us;
        assert!(t > p, "threaded shared-file mixed workload must be slower: {t} vs {p}");
    }
}
