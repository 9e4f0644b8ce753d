//! I/O backends implementing the [`crate::IoQueue`] submission/completion contract
//! (and with it the blocking psync calls it provides).
//!
//! * [`psync`] — batch submission to the simulated SSD (the psync I/O of the paper).
//! * [`sync`] — one request per submission (conventional synchronous I/O).
//! * [`threaded`] — thread-per-I/O "parallel processing" emulation with the POSIX
//!   shared-file write-ordering behaviour and context-switch accounting.
//! * [`mod@file`] — a real-file backend: a persistent pool of positional-I/O
//!   workers fed over a shared job queue.
//!
//! The simulated backends share one ticket engine (`SimShared`): every submission
//! is scheduled on the device timeline, and submissions made while other tickets
//! are in flight join the same scheduling window with a **common start time** — so
//! overlapped tickets contend for the same channels, packages and host interface
//! (the shared-device model of Figure 4). A read's data is copied out of the
//! [`MemDisk`] into one shared image per request, which the completion hands on
//! unshared.

pub mod file;
pub mod psync;
pub mod sync;
pub mod threaded;

use crate::error::{IoError, IoResult};
use crate::memdisk::MemDisk;
use crate::queue::{Completion, Ticket, TryComplete, EMPTY_TICKET};
use crate::request::{ReadRequest, WriteRequest};
use crate::stats::{BatchStats, IoStats};
use parking_lot::Mutex;
use ssd_sim::{IoKind, SsdDevice, SsdRequest, WindowScheduler};
use std::collections::HashMap;
use std::sync::Arc;
use threaded::FileLayout;

/// How a simulated backend turns one submission into device work.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Discipline {
    /// The whole submission is one NCQ batch; tickets in flight together join one
    /// scheduling window with a common start time (psync I/O).
    Batch,
    /// Every request is its own device submission, serviced one after another
    /// (conventional synchronous I/O). Tickets serialise behind each other.
    Serial,
    /// Thread-per-I/O emulation: requests overlap per the file layout; tickets
    /// serialise behind each other (each emulated thread group runs to completion).
    Threaded(FileLayout),
}

/// One in-flight ticket: its (pre-computed) completion and when it lands.
#[derive(Debug)]
struct PendingIo {
    /// Absolute simulated completion time, µs.
    completion_us: f64,
    completion: Completion,
}

/// The in-flight window of a simulated backend.
#[derive(Debug)]
struct QueueState {
    next_id: u64,
    /// Start of the current overlap group on the device timeline, µs.
    window_start: f64,
    /// Incremental scheduler of the current group (`Batch` discipline) — extended
    /// request by request, so a pipeline that always keeps a ticket in flight
    /// pays O(requests), not O(requests²), and nothing is accumulated. One
    /// scheduler serves every group: each group restarts it.
    scheduler: WindowScheduler,
    /// Completion frontier within the group (`Serial` / `Threaded` disciplines).
    frontier_us: f64,
    /// Latest completion time of any ticket in the current group, µs.
    group_end_us: f64,
    /// Latest completion time the submitter has *observed* (reaped) within the
    /// current group, µs. A batch submitted after a completion was reaped cannot
    /// have been queued on the device any earlier, so its requests are floored
    /// here — this is what makes pipeline *depth* visible on the timeline: a
    /// depth-2 driver's floors trail one batch behind, a depth-N driver's trail
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

/// Shared state of the simulator-backed backends: the timing device, the data
/// plane, the in-flight ticket window and the cumulative statistics.
///
/// Lock order: `device` before `queue` before `stats`.
#[derive(Debug)]
pub(crate) struct SimShared {
    pub(crate) device: Mutex<SsdDevice>,
    pub(crate) disk: Mutex<MemDisk>,
    pub(crate) stats: Mutex<IoStats>,
    queue: Mutex<QueueState>,
    discipline: Discipline,
}

impl SimShared {
    pub(crate) fn new(config: ssd_sim::SsdConfig, capacity_bytes: u64, discipline: Discipline) -> Self {
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

    /// Converts read requests into simulator requests.
    pub(crate) fn to_sim_reads(reqs: &[ReadRequest]) -> Vec<SsdRequest> {
        reqs.iter()
            .map(|r| SsdRequest::new(IoKind::Read, r.offset, r.len.max(1) as u64))
            .collect()
    }

    /// Converts write requests into simulator requests.
    pub(crate) fn to_sim_writes(reqs: &[WriteRequest<'_>]) -> Vec<SsdRequest> {
        reqs.iter()
            .map(|r| SsdRequest::new(IoKind::Write, r.offset, r.data.len().max(1) as u64))
            .collect()
    }

    // ---------------------------------------------------------------- submission --

    /// Submits a read batch: the data plane is copied out immediately (the device
    /// holds the data the moment the command is accepted), one image per request,
    /// and the batch is placed on the shared timeline.
    pub(crate) fn submit_read(&self, reqs: &[ReadRequest], context_switches: u64) -> IoResult<Ticket> {
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
        let sim_reqs = Self::to_sim_reads(reqs);
        self.enqueue(sim_reqs, buffers, reqs.len() as u64, 0, context_switches)
    }

    /// Submits a write batch: the data plane is captured immediately (psync write
    /// semantics make the batch durable by the time its completion is reaped).
    pub(crate) fn submit_write(&self, reqs: &[WriteRequest<'_>], context_switches: u64) -> IoResult<Ticket> {
        if reqs.is_empty() {
            return Ok(Ticket::empty());
        }
        {
            let mut disk = self.disk.lock();
            for r in reqs {
                disk.write(r.offset, r.data)?;
            }
        }
        let sim_reqs = Self::to_sim_writes(reqs);
        self.enqueue(sim_reqs, Vec::new(), 0, reqs.len() as u64, context_switches)
    }

    /// Places a batch on the device timeline per the backend's discipline and
    /// registers its ticket.
    fn enqueue(
        &self,
        sim_reqs: Vec<SsdRequest>,
        buffers: Vec<Arc<[u8]>>,
        reads: u64,
        writes: u64,
        context_switches: u64,
    ) -> IoResult<Ticket> {
        let mut device = self.device.lock();
        let mut q = self.queue.lock();
        if q.outstanding.is_empty() {
            q.begin_group(device.now_us());
            self.stats.lock().overlap_groups += 1;
        }
        let completion_us = match self.discipline {
            Discipline::Batch => {
                // Extending the window never changes the schedule of earlier
                // requests (the device services them in submission order), so
                // already-issued tickets keep their completion times. Requests
                // are floored at the reap frontier: a batch submitted after the
                // driver observed a completion cannot start before it.
                let (window_start, floor) = (q.window_start, q.reap_frontier_us);
                sim_reqs
                    .iter()
                    .map(|r| q.scheduler.push_after(r, floor))
                    .fold(window_start, f64::max)
            }
            Discipline::Serial => {
                let mut t = q.frontier_us;
                for req in &sim_reqs {
                    t += device.service_batch_at(t, std::slice::from_ref(req)).elapsed_us;
                }
                q.frontier_us = t;
                t
            }
            Discipline::Threaded(layout) => {
                let end = q.frontier_us + threaded_elapsed(&device, layout, q.frontier_us, &sim_reqs);
                q.frontier_us = end;
                end
            }
        };
        let bytes: u64 = sim_reqs.iter().map(|r| r.len).sum();
        let batch = BatchStats {
            requests: sim_reqs.len(),
            bytes,
            elapsed_us: completion_us - q.window_start,
            context_switches,
        };
        device.note_serviced(&sim_reqs);
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
            writes,
            &BatchStats {
                elapsed_us: 0.0,
                ..batch
            },
        );
        Ok(Ticket(id))
    }

    // ---------------------------------------------------------------- completion --

    /// Blocks (logically — simulated time needs no waiting) until `ticket`
    /// completes.
    pub(crate) fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
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

    /// Polls `ticket`: it is ready exactly when no other in-flight ticket completes
    /// before it, so a polling driver reaps completions in landing order.
    pub(crate) fn try_complete(&self, ticket: Ticket) -> IoResult<TryComplete> {
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

    // ----------------------------------------------------------------- services --

    /// Services a kind-interleaved request sequence *now* (no ticket), preserving
    /// the submission interleaving — the Figure-4 micro-benchmark path. Requires an
    /// empty in-flight window. Returns the elapsed simulated time; the clock
    /// advances but no backend statistics are recorded (matching the old direct
    /// `service` helper).
    pub(crate) fn service_mixed_now(&self, sim_reqs: &[SsdRequest]) -> f64 {
        let mut device = self.device.lock();
        let q = self.queue.lock();
        assert!(
            q.outstanding.is_empty(),
            "mixed servicing requires an idle backend (no tickets in flight)"
        );
        let start = device.now_us();
        let elapsed = match self.discipline {
            Discipline::Batch => device.service_batch_at(start, sim_reqs).elapsed_us,
            Discipline::Serial => {
                let mut t = start;
                for req in sim_reqs {
                    t += device.service_batch_at(t, std::slice::from_ref(req)).elapsed_us;
                }
                t - start
            }
            Discipline::Threaded(layout) => threaded_elapsed(&device, layout, start, sim_reqs),
        };
        device.advance_clock_to(start + elapsed);
        elapsed
    }

    /// The device's native command queue depth — how many concurrently
    /// outstanding requests one scheduling window absorbs. Depth past this is
    /// serviced in subsequent windows, so it is the useful pipelining headroom
    /// the geometry (channels × packages) can then spread over the flash.
    pub(crate) fn queue_depth_hint(&self) -> usize {
        self.device.lock().config().ncq_depth.max(1)
    }

    pub(crate) fn stats(&self) -> IoStats {
        *self.stats.lock()
    }

    pub(crate) fn reset_stats(&self) {
        *self.stats.lock() = IoStats::default();
    }
}

/// Elapsed time of one thread-per-I/O submission under `layout`, starting at
/// `start_us`:
///
/// * `SeparateFiles`: the emulated threads genuinely overlap — the whole set is one
///   device batch;
/// * `SharedFile`: maximal runs of consecutive reads are batched (shared lock), but
///   every write is an exclusive section and is serviced on its own.
fn threaded_elapsed(device: &SsdDevice, layout: FileLayout, start_us: f64, sim_reqs: &[SsdRequest]) -> f64 {
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
