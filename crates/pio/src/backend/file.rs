//! Real-file submission/completion backend.
//!
//! The simulator backends are what the experiments use, but a library user may want
//! to run the PIO B-tree against an actual file or block device. This backend
//! emulates the `io_submit` / `io_getevents` pair the same way the paper does when
//! no native primitive is available: a **persistent pool** of positional-I/O worker
//! threads drains a shared job queue. [`crate::IoQueue::submit_read`] /
//! [`crate::IoQueue::submit_write`] enqueue one job per request and return a ticket
//! without blocking; the worker that finishes a ticket's last job marks it complete
//! (fsyncing first for write tickets, so a reaped write ticket is durable) and
//! wakes any waiter. Several tickets can be in flight at once and complete in any
//! order.
//!
//! Workers are spawned once at [`FileThreadPoolIo::open`] and joined on drop — no
//! threads are created per submission. Timing reported by this backend is
//! wall-clock, not simulated.

use crate::error::{IoError, IoResult};
use crate::queue::{zeroed_image, Completion, IoQueue, Ticket, EMPTY_TICKET};
use crate::request::{ReadRequest, WriteRequest};
use crate::stats::{BatchStats, IoStats};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One unit of worker work: a single positional read or write. A write's
/// `data` is its request's shared image, or a copy of borrowed bytes.
enum Job {
    Read { offset: u64, len: usize, slot: usize },
    Write { offset: u64, data: Arc<[u8]> },
}

/// The shared job queue (guarded by [`FilePoolShared::jobs`]).
struct JobQueue {
    queue: VecDeque<(u64, Job)>,
    shutdown: bool,
}

/// Book-keeping of one in-flight ticket.
struct InflightTicket {
    /// Jobs not yet finished.
    remaining: usize,
    /// Read images, filled slot by slot (empty for writes).
    buffers: Vec<Option<Arc<[u8]>>>,
    requests: usize,
    bytes: u64,
    is_write: bool,
    submitted: Instant,
    /// First error any job of the ticket hit.
    error: Option<IoError>,
    /// Set by the worker that finishes the last job.
    done: Option<BatchStats>,
}

/// State shared between the submitting threads and the worker pool.
struct FilePoolShared {
    file: File,
    jobs: StdMutex<JobQueue>,
    jobs_cv: Condvar,
    tickets: StdMutex<HashMap<u64, InflightTicket>>,
    done_cv: Condvar,
    stats: Mutex<IoStats>,
}

impl FilePoolShared {
    /// Executes one job and folds its outcome into the ticket; completes the ticket
    /// when it was the last job.
    fn run_job(&self, ticket_id: u64, job: Job) {
        let outcome = match job {
            Job::Read { offset, len, slot } => {
                // Read until the image is full or a true EOF: a partial mid-file
                // read (POSIX allows short reads) must not surface zeroed bytes.
                // Only the tail past EOF stays zero-filled, like a sparse file.
                // The image is filled in place and handed out unshared.
                let mut image = zeroed_image(len);
                let buf = Arc::get_mut(&mut image).expect("a fresh image is unshared");
                let mut filled = 0usize;
                let result = loop {
                    match self.file.read_at(&mut buf[filled..], offset + filled as u64) {
                        Ok(0) => break Ok(()),
                        Ok(n) => {
                            filled += n;
                            if filled == len {
                                break Ok(());
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => break Err(IoError::Os(e)),
                    }
                };
                result.map(|()| Some((slot, image)))
            }
            Job::Write { offset, data } => match self.file.write_all_at(&data, offset) {
                Ok(()) => Ok(None),
                Err(e) => Err(IoError::Os(e)),
            },
        };

        let (last_job, needs_sync) = {
            let mut tickets = self.tickets.lock().unwrap_or_else(|e| e.into_inner());
            let entry = tickets.get_mut(&ticket_id).expect("in-flight ticket");
            match outcome {
                Ok(Some((slot, image))) => entry.buffers[slot] = Some(image),
                Ok(None) => {}
                Err(e) => {
                    if entry.error.is_none() {
                        entry.error = Some(e);
                    }
                }
            }
            entry.remaining -= 1;
            (entry.remaining == 0, entry.is_write && entry.error.is_none())
        };
        if !last_job {
            return;
        }
        // psync write semantics: the group is durable when its completion is
        // observed. The fsync runs outside the ticket-table lock so other tickets
        // keep completing (and new ones keep being submitted) while it lasts; this
        // ticket cannot be observed or removed meanwhile because `done` is still
        // unset.
        let sync_error = if needs_sync { self.file.sync_data().err() } else { None };
        let mut tickets = self.tickets.lock().unwrap_or_else(|e| e.into_inner());
        let entry = tickets.get_mut(&ticket_id).expect("undone ticket stays in the table");
        if let Some(e) = sync_error {
            if entry.error.is_none() {
                entry.error = Some(IoError::Os(e));
            }
        }
        let batch = BatchStats {
            requests: entry.requests,
            bytes: entry.bytes,
            elapsed_us: entry.submitted.elapsed().as_secs_f64() * 1e6,
            context_switches: 2,
        };
        entry.done = Some(batch);
        let (reads, writes) = if entry.is_write {
            (0, entry.requests as u64)
        } else {
            (entry.requests as u64, 0)
        };
        self.stats.lock().absorb(reads, writes, &batch);
        self.done_cv.notify_all();
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(job) = jobs.queue.pop_front() {
                        break Some(job);
                    }
                    if jobs.shutdown {
                        break None;
                    }
                    jobs = self.jobs_cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
                }
            };
            let Some((ticket_id, job)) = job else { return };
            self.run_job(ticket_id, job);
        }
    }

    /// Removes a finished ticket and converts it into a completion (or its error).
    fn finish(&self, mut entry: InflightTicket) -> IoResult<Completion> {
        if let Some(e) = entry.error.take() {
            return Err(e);
        }
        Ok(Completion {
            buffers: entry
                .buffers
                .into_iter()
                .map(|image| image.expect("every read job filled its slot"))
                .collect(),
            stats: entry.done.expect("finished ticket"),
        })
    }
}

/// psync-style I/O over a real file: a persistent thread pool of positional I/O
/// workers behind the [`IoQueue`] submission/completion interface.
pub struct FileThreadPoolIo {
    shared: Arc<FilePoolShared>,
    next_ticket: Mutex<u64>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for FileThreadPoolIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileThreadPoolIo")
            .field("workers", &self.workers)
            .finish()
    }
}

impl FileThreadPoolIo {
    /// Opens (or creates) `path` for read/write access and spawns a persistent pool
    /// of `workers` I/O worker threads (at least one).
    pub fn open<P: AsRef<Path>>(path: P, workers: usize) -> IoResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let workers = workers.max(1);
        let shared = Arc::new(FilePoolShared {
            file,
            jobs: StdMutex::new(JobQueue {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            jobs_cv: Condvar::new(),
            tickets: StdMutex::new(HashMap::new()),
            done_cv: Condvar::new(),
            stats: Mutex::new(IoStats::default()),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pio-file-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn file I/O worker")
            })
            .collect();
        Ok(Self {
            shared,
            next_ticket: Mutex::new(0),
            workers,
            handles,
        })
    }

    /// Number of persistent worker threads draining the job queue.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn submit(
        &self,
        jobs: Vec<Job>,
        buffers: Vec<Option<Arc<[u8]>>>,
        requests: usize,
        bytes: u64,
        is_write: bool,
    ) -> Ticket {
        let id = {
            let mut next = self.next_ticket.lock();
            let id = *next;
            *next += 1;
            id
        };
        let mut tickets = self.shared.tickets.lock().unwrap_or_else(|e| e.into_inner());
        if tickets.is_empty() {
            // A submission against an idle pool begins a new overlap group
            // (see `IoStats::overlap_groups`).
            self.shared.stats.lock().overlap_groups += 1;
        }
        tickets.insert(
            id,
            InflightTicket {
                remaining: jobs.len(),
                buffers,
                requests,
                bytes,
                is_write,
                submitted: Instant::now(),
                error: None,
                done: None,
            },
        );
        drop(tickets);
        {
            let mut q = self.shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
            q.queue.extend(jobs.into_iter().map(|j| (id, j)));
        }
        self.shared.jobs_cv.notify_all();
        Ticket(id)
    }
}

impl IoQueue for FileThreadPoolIo {
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        if reqs.is_empty() {
            return Ok(Ticket::empty());
        }
        let jobs: Vec<Job> = reqs
            .iter()
            .enumerate()
            .map(|(slot, r)| Job::Read {
                offset: r.offset,
                len: r.len,
                slot,
            })
            .collect();
        let bytes = reqs.iter().map(|r| r.len as u64).sum();
        Ok(self.submit(jobs, vec![None; reqs.len()], reqs.len(), bytes, false))
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        if reqs.is_empty() {
            return Ok(Ticket::empty());
        }
        let jobs: Vec<Job> = reqs
            .iter()
            .map(|r| Job::Write {
                offset: r.offset,
                data: r.to_image(),
            })
            .collect();
        let bytes = reqs.iter().map(|r| r.data.len() as u64).sum();
        Ok(self.submit(jobs, Vec::new(), reqs.len(), bytes, true))
    }

    fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
        if ticket.0 == EMPTY_TICKET {
            return Ok(Completion::default());
        }
        let mut tickets = self.shared.tickets.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match tickets.get(&ticket.0) {
                None => return Err(IoError::UnknownTicket(ticket.0)),
                Some(entry) if entry.done.is_some() => {
                    let entry = tickets.remove(&ticket.0).expect("present");
                    return self.shared.finish(entry);
                }
                Some(_) => {
                    tickets = self.shared.done_cv.wait(tickets).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    fn io_stats(&self) -> IoStats {
        *self.shared.stats.lock()
    }

    fn reset_io_stats(&self) {
        *self.shared.stats.lock() = IoStats::default();
    }

    /// The pool genuinely overlaps as many requests as it has workers: that is
    /// the queue depth a pipelined caller can usefully fill.
    fn queue_depth_hint(&self) -> Option<usize> {
        Some(self.workers)
    }

    /// Physically returns the file's tail beyond `len` to the filesystem.
    /// Shrink-only: a `len` at or past the current size is a no-op, so a caller
    /// whose live data still reaches the end never accidentally grows (or
    /// zero-extends) the file. Reads past the new end keep reporting zeros,
    /// exactly like the never-written tail of a sparse file.
    fn reclaim_to(&self, len: u64) -> IoResult<()> {
        let current = self.shared.file.metadata().map_err(IoError::Os)?.len();
        if len < current {
            self.shared.file.set_len(len).map_err(IoError::Os)?;
        }
        Ok(())
    }
}

impl Drop for FileThreadPoolIo {
    fn drop(&mut self) {
        {
            let mut q = self.shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
            q.shutdown = true;
        }
        self.shared.jobs_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoQueue;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pio-file-backend-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn round_trip_on_a_real_file() {
        let path = temp_path("roundtrip");
        let io = FileThreadPoolIo::open(&path, 4).unwrap();
        let pages: Vec<(u64, Vec<u8>)> = (0..16u64).map(|i| (i * 4096, vec![i as u8; 4096])).collect();
        let writes: Vec<WriteRequest> = pages.iter().map(|(o, d)| WriteRequest::new(*o, d)).collect();
        io.psync_write(&writes).unwrap();
        let reads: Vec<ReadRequest> = pages.iter().map(|(o, d)| ReadRequest::new(*o, d.len())).collect();
        let (bufs, stats) = io.psync_read(&reads).unwrap();
        for (buf, (_, d)) in bufs.iter().zip(&pages) {
            assert_eq!(&buf[..], d);
        }
        assert_eq!(stats.requests, 16);
        assert!(io.io_stats().writes == 16 && io.io_stats().reads == 16);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interleaved_tickets_complete_independently() {
        let path = temp_path("tickets");
        let io = FileThreadPoolIo::open(&path, 4).unwrap();
        let a = vec![0xAAu8; 4096];
        let b = vec![0xBBu8; 4096];
        let wa = io.submit_write(&[WriteRequest::new(0, &a)]).unwrap();
        let wb = io.submit_write(&[WriteRequest::new(8192, &b)]).unwrap();
        // Reap in reverse submission order: completions are independent.
        io.wait(wb).unwrap();
        io.wait(wa).unwrap();
        let ra = io.submit_read(&[ReadRequest::new(0, 4096)]).unwrap();
        let rb = io.submit_read(&[ReadRequest::new(8192, 4096)]).unwrap();
        assert_eq!(&io.wait(ra).unwrap().buffers[0][..], a);
        assert_eq!(&io.wait(rb).unwrap().buffers[0][..], b);
        assert_eq!(io.io_stats().batches, 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_batches_are_noops() {
        let path = temp_path("empty");
        let io = FileThreadPoolIo::open(&path, 2).unwrap();
        assert!(io.psync_read(&[]).unwrap().0.is_empty());
        assert_eq!(io.psync_write(&[]).unwrap().requests, 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Retry classification depends on the worker pool preserving the failing
    /// syscall's `ErrorKind` end-to-end: a job failure must surface as
    /// `IoError::Os` carrying the original OS error, never stringified into
    /// `IoError::WorkerFailed` (which is reserved for a dead worker). `/dev/full`
    /// makes every write fail with ENOSPC — a hard, non-retryable kind that has
    /// to arrive intact through submit → job → ticket → wait.
    #[test]
    #[cfg(target_os = "linux")]
    fn job_failures_preserve_the_os_error_kind() {
        let io = FileThreadPoolIo::open("/dev/full", 2).unwrap();
        let data = vec![0u8; 4096];
        let ticket = io.submit_write(&[WriteRequest::new(0, &data)]).unwrap();
        let err = io.wait(ticket).unwrap_err();
        match &err {
            IoError::Os(os) => {
                assert_eq!(os.raw_os_error(), Some(28), "ENOSPC must survive the pool: {os}");
            }
            other => panic!("expected IoError::Os, got {other}"),
        }
        assert!(!err.is_retryable(), "ENOSPC is a hard failure, not a transient one");
    }

    /// One failing request poisons its whole ticket with the *first* error, and
    /// the first error's kind is the one reported — later successes of the same
    /// batch do not mask it.
    #[test]
    #[cfg(target_os = "linux")]
    fn first_job_error_of_a_batch_is_reported() {
        let io = FileThreadPoolIo::open("/dev/full", 1).unwrap();
        let a = vec![1u8; 512];
        let b = vec![2u8; 512];
        let reqs = [WriteRequest::new(0, &a), WriteRequest::new(4096, &b)];
        let ticket = io.submit_write(&reqs).unwrap();
        match io.wait(ticket).unwrap_err() {
            IoError::Os(os) => assert_eq!(os.raw_os_error(), Some(28)),
            other => panic!("expected IoError::Os, got {other}"),
        }
    }

    #[test]
    fn workers_is_at_least_one() {
        let path = temp_path("workers");
        let io = FileThreadPoolIo::open(&path, 0).unwrap();
        assert_eq!(io.workers(), 1);
        io.write_at(0, b"x").unwrap();
        assert_eq!(&io.read_at(0, 1).unwrap()[..], b"x");
        let _ = std::fs::remove_file(&path);
    }
}
