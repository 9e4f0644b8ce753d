//! The simulated SSD backend: one [`SimPsyncIo`] type, driven by one of the
//! three host disciplines of Section 2.3 ([`Discipline`]).
//!
//! Every submission is scheduled on the device timeline, and submissions made
//! while other tickets are in flight join the same overlap group with a
//! **common start time** — so overlapped tickets contend for the same
//! channels, packages and host interface (the shared-device model of
//! Figure 4). A read's data is copied out of the [`MemDisk`] into one shared
//! image per request, which the completion hands on unshared.

use super::threaded::FileLayout;
use super::{sync, threaded};
use crate::error::{IoError, IoResult};
use crate::memdisk::MemDisk;
use crate::queue::{Completion, IoQueue, Ticket, TryComplete, EMPTY_TICKET};
use crate::request::{ReadRequest, WriteRequest};
use crate::stats::{BatchStats, IoStats};
use parking_lot::Mutex;
use ssd_sim::{IoKind, SsdConfig, SsdDevice, SsdRequest, WindowScheduler};
use std::collections::HashMap;
use std::sync::Arc;

/// How the host drives the device: the three ways of creating outstanding I/O
/// that Section 2.3 and Figure 4 of the paper compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// psync I/O: a submission is one NCQ batch, and tickets in flight together
    /// join one scheduling window with a common start time — exactly the
    /// behaviour the paper's wrapper around `io_submit`/`io_getevents` obtains.
    Psync,
    /// Conventional synchronous I/O, the baseline of every comparison in the
    /// paper: each request is its own device submission (see [`mod@sync`]).
    /// Tickets serialise behind each other.
    Sync,
    /// One thread per outstanding I/O: the requests of a submission overlap as
    /// the file layout allows (see [`mod@threaded`]). Tickets serialise behind
    /// each other — each emulated thread group runs to completion.
    Threads(FileLayout),
}

impl Discipline {
    /// Context switches one submission of `requests` requests charges the
    /// caller.
    pub(crate) fn context_switches(self, requests: usize) -> u64 {
        match self {
            // Sleep while the batch is in flight, wake when its last completion
            // arrives.
            Discipline::Psync => 2,
            // Sleep and wake around every request.
            Discipline::Sync => 2 * requests as u64,
            // Per request: sleep and wake, plus the scheduler's switches to and
            // from the worker thread.
            Discipline::Threads(_) => 4 * requests as u64,
        }
    }

    /// Outstanding requests the host can usefully keep in flight on a device
    /// whose native command queue holds `ncq_depth`. psync tickets in flight
    /// together share one scheduling window, so a pipeline gains up to
    /// `ncq_depth / batch_size` overlapped batches; the other disciplines
    /// serialise tickets, so extra pipeline depth buys nothing.
    pub(crate) fn queue_depth(self, ncq_depth: usize) -> usize {
        match self {
            Discipline::Psync => ncq_depth.max(1),
            Discipline::Sync | Discipline::Threads(_) => 1,
        }
    }

    /// Places one submission on the open overlap group and returns the
    /// absolute time it completes.
    fn schedule(self, device: &SsdDevice, group: &mut QueueState, reqs: &[SsdRequest]) -> f64 {
        match self {
            Discipline::Psync => {
                // Extending the window never changes the schedule of earlier
                // requests (the device services them in submission order), so
                // already-issued tickets keep their completion times. Requests
                // are floored at the reap frontier: a batch submitted after the
                // submitter observed a completion cannot start before it.
                let (window_start, floor) = (group.window_start, group.reap_frontier_us);
                reqs.iter()
                    .map(|r| group.scheduler.push_after(r, floor))
                    .fold(window_start, f64::max)
            }
            Discipline::Sync => {
                group.frontier_us = sync::one_at_a_time(device, group.frontier_us, reqs);
                group.frontier_us
            }
            Discipline::Threads(layout) => {
                group.frontier_us += threaded::elapsed_us(device, layout, group.frontier_us, reqs);
                group.frontier_us
            }
        }
    }
}

/// One in-flight ticket: its (pre-computed) completion and when it lands.
#[derive(Debug)]
struct PendingIo {
    /// Absolute simulated completion time, µs.
    completion_us: f64,
    completion: Completion,
}

/// The in-flight window: the open overlap group and its tickets.
#[derive(Debug)]
struct QueueState {
    next_id: u64,
    /// Start of the current overlap group on the device timeline, µs.
    window_start: f64,
    /// Incremental scheduler of the current group ([`Discipline::Psync`]) —
    /// extended request by request, so a pipeline that always keeps a ticket
    /// in flight pays O(requests), not O(requests²), and nothing is
    /// accumulated. One scheduler serves every group: each group restarts it.
    scheduler: WindowScheduler,
    /// Completion frontier within the group (the serialising disciplines).
    frontier_us: f64,
    /// Latest completion time of any ticket in the current group, µs.
    group_end_us: f64,
    /// Latest completion time the submitter has *observed* (reaped) within the
    /// current group, µs. A batch submitted after a completion was reaped cannot
    /// have been queued on the device any earlier, so its requests are floored
    /// here — this is what makes pipeline *depth* visible on the timeline: a
    /// depth-2 pipeline's floors trail one batch behind, a depth-N pipeline's trail
    /// N−1 batches behind and keep the device queue correspondingly fuller.
    reap_frontier_us: f64,
    outstanding: HashMap<u64, PendingIo>,
}

impl QueueState {
    fn new(scheduler: WindowScheduler) -> Self {
        Self {
            next_id: 0,
            window_start: 0.0,
            scheduler,
            frontier_us: 0.0,
            group_end_us: 0.0,
            reap_frontier_us: 0.0,
            outstanding: HashMap::new(),
        }
    }

    fn begin_group(&mut self, now_us: f64) {
        self.window_start = now_us;
        self.scheduler.restart(now_us);
        self.frontier_us = now_us;
        self.group_end_us = now_us;
        self.reap_frontier_us = now_us;
    }
}

/// The simulated SSD under one host [`Discipline`]: the timing device, the data
/// plane, the in-flight ticket window and the cumulative statistics.
///
/// Under [`Discipline::Psync`] (what [`SimPsyncIo::with_profile`] builds) all
/// requests of one submission are delivered to the device as a single batch,
/// so its scheduler sees them in the same NCQ window and can spread them over
/// its channels. Batches submitted while other tickets are in flight join the
/// same scheduling window and contend for the shared device.
///
/// Lock order: `device` before `queue` before `stats`.
#[derive(Debug)]
pub struct SimPsyncIo {
    device: Mutex<SsdDevice>,
    disk: Mutex<MemDisk>,
    stats: Mutex<IoStats>,
    queue: Mutex<QueueState>,
    discipline: Discipline,
}

impl SimPsyncIo {
    /// Creates a backend over a device built from `config`, with
    /// `capacity_bytes` of addressable storage, driven by `discipline`.
    pub fn new(config: SsdConfig, capacity_bytes: u64, discipline: Discipline) -> Self {
        let device = SsdDevice::new(config);
        let queue = QueueState::new(device.window_scheduler(device.now_us()));
        Self {
            device: Mutex::new(device),
            disk: Mutex::new(MemDisk::new(capacity_bytes)),
            stats: Mutex::new(IoStats::default()),
            queue: Mutex::new(queue),
            discipline,
        }
    }

    /// psync I/O over a device built from a named profile.
    pub fn with_profile(profile: ssd_sim::DeviceProfile, capacity_bytes: u64) -> Self {
        Self::new(profile.build(), capacity_bytes, Discipline::Psync)
    }

    /// The host discipline this backend models.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// Simulated time accumulated by the underlying device (µs).
    pub fn device_time_us(&self) -> f64 {
        self.device.lock().now_us()
    }

    /// Services a timing-only request sequence whose reads and writes keep
    /// their interleaving — Figure 4's mixed round — and returns its elapsed
    /// simulated time. No data moves and no statistics are counted; the device
    /// clock advances to the round's completion.
    ///
    /// # Panics
    /// Panics if tickets are in flight: the round opens an overlap group of its
    /// own.
    pub fn serve_interleaved(&self, reqs: &[SsdRequest]) -> f64 {
        let mut device = self.device.lock();
        let mut q = self.queue.lock();
        assert!(
            q.outstanding.is_empty(),
            "an interleaved round requires an idle backend (no tickets in flight)"
        );
        let start = device.now_us();
        q.begin_group(start);
        let end = self.discipline.schedule(&device, &mut q, reqs);
        device.advance_clock_to(end);
        end - start
    }

    /// Places a batch on the device timeline per the backend's discipline and
    /// registers its ticket.
    fn enqueue(&self, sim_reqs: Vec<SsdRequest>, buffers: Vec<Arc<[u8]>>, reads: u64) -> Ticket {
        let device = self.device.lock();
        let mut q = self.queue.lock();
        if q.outstanding.is_empty() {
            q.begin_group(device.now_us());
            self.stats.lock().overlap_groups += 1;
        }
        let completion_us = self.discipline.schedule(&device, &mut q, &sim_reqs);
        let bytes: u64 = sim_reqs.iter().map(|r| r.len).sum();
        let batch = BatchStats {
            requests: sim_reqs.len(),
            bytes,
            elapsed_us: completion_us - q.window_start,
            context_switches: self.discipline.context_switches(sim_reqs.len()),
        };
        q.group_end_us = q.group_end_us.max(completion_us);
        let id = q.next_id;
        q.next_id += 1;
        q.outstanding.insert(
            id,
            PendingIo {
                completion_us,
                completion: Completion { buffers, stats: batch },
            },
        );
        // Device time is charged once per overlap group (at the final reap);
        // everything else is counted at submission.
        self.stats.lock().absorb(
            reads,
            sim_reqs.len() as u64 - reads,
            &BatchStats {
                elapsed_us: 0.0,
                ..batch
            },
        );
        Ticket(id)
    }

    /// Bookkeeping after removing a ticket: when the group drains, the device
    /// clock advances past it and its makespan is charged to the cumulative stats.
    fn reap(&self, device: &mut SsdDevice, q: &mut QueueState) {
        if q.outstanding.is_empty() {
            let makespan = q.group_end_us - q.window_start;
            device.advance_clock_to(q.group_end_us);
            if makespan > 0.0 {
                self.stats.lock().elapsed_us += makespan;
            }
        }
    }
}

impl IoQueue for SimPsyncIo {
    /// The data plane is copied out immediately (the device holds the data the
    /// moment the command is accepted), one image per request, and the batch is
    /// placed on the shared timeline.
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        if reqs.is_empty() {
            return Ok(Ticket::empty());
        }
        let mut buffers = Vec::with_capacity(reqs.len());
        {
            let disk = self.disk.lock();
            for r in reqs {
                buffers.push(disk.read(r.offset, r.len)?);
            }
        }
        let sim_reqs = reqs
            .iter()
            .map(|r| SsdRequest::new(IoKind::Read, r.offset, r.len.max(1) as u64))
            .collect();
        Ok(self.enqueue(sim_reqs, buffers, reqs.len() as u64))
    }

    /// The data plane is captured immediately (psync write semantics make the
    /// batch durable by the time its completion is reaped).
    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        if reqs.is_empty() {
            return Ok(Ticket::empty());
        }
        {
            let mut disk = self.disk.lock();
            for r in reqs {
                disk.write(r.offset, r.data)?;
            }
        }
        let sim_reqs = reqs
            .iter()
            .map(|r| SsdRequest::new(IoKind::Write, r.offset, r.data.len().max(1) as u64))
            .collect();
        Ok(self.enqueue(sim_reqs, Vec::new(), 0))
    }

    /// Blocks (logically — simulated time needs no waiting) until `ticket`
    /// completes.
    fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
        if ticket.0 == EMPTY_TICKET {
            return Ok(Completion::default());
        }
        let mut device = self.device.lock();
        let mut q = self.queue.lock();
        let pending = q
            .outstanding
            .remove(&ticket.0)
            .ok_or(IoError::UnknownTicket(ticket.0))?;
        q.reap_frontier_us = q.reap_frontier_us.max(pending.completion_us);
        self.reap(&mut device, &mut q);
        Ok(pending.completion)
    }

    /// A ticket is ready exactly when no other in-flight ticket completes
    /// before it, so a polling caller reaps completions in landing order.
    fn try_complete(&self, ticket: Ticket) -> IoResult<TryComplete> {
        if ticket.0 == EMPTY_TICKET {
            return Ok(TryComplete::Ready(Completion::default()));
        }
        let mut device = self.device.lock();
        let mut q = self.queue.lock();
        let mine = q
            .outstanding
            .get(&ticket.0)
            .ok_or(IoError::UnknownTicket(ticket.0))?
            .completion_us;
        let earliest = q
            .outstanding
            .values()
            .map(|p| p.completion_us)
            .fold(f64::INFINITY, f64::min);
        if mine > earliest {
            return Ok(TryComplete::Pending(ticket));
        }
        let pending = q.outstanding.remove(&ticket.0).expect("looked up above");
        q.reap_frontier_us = q.reap_frontier_us.max(pending.completion_us);
        self.reap(&mut device, &mut q);
        Ok(TryComplete::Ready(pending.completion))
    }

    fn io_stats(&self) -> IoStats {
        *self.stats.lock()
    }

    fn reset_io_stats(&self) {
        *self.stats.lock() = IoStats::default();
    }

    /// See [`Discipline`]: the device's NCQ depth under psync I/O, 1 under the
    /// disciplines that serialise tickets.
    fn queue_depth_hint(&self) -> Option<usize> {
        Some(self.discipline.queue_depth(self.device.lock().config().ncq_depth))
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
        use crate::TryComplete;
        const CAP: u64 = 16 * 1024 * 1024;
        let config = DeviceProfile::P300.build();
        let backends = [
            io(),
            SimPsyncIo::new(config.clone(), CAP, Discipline::Sync),
            SimPsyncIo::new(config, CAP, Discipline::Threads(FileLayout::SharedFile)),
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
