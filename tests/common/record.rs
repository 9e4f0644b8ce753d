//! A recorder in front of an [`IoQueue`]'s submissions: which thread handed
//! each read or write batch of how many requests to which backend. It is how
//! a test sees *where* a piece of engine work ran — on the thread that made
//! the call, or on another — and how large each psync call was, without
//! timing anything.

#![allow(dead_code)]

use engine::EngineBackends;
use pio::{Completion, IoQueue, IoResult, IoStats, ReadRequest, Ticket, WriteRequest};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// One `submit_read` / `submit_write` as the recorder saw it.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The backend's label: `store{i}` or `wal{i}` (see [`record_shards`]).
    pub backend: String,
    pub write: bool,
    /// The batch's request count (`reqs.len()`).
    pub requests: usize,
    pub thread: ThreadId,
    /// The submitting thread's name (empty if it has none).
    pub thread_name: String,
}

/// The shared list every [`RecordIo`] of one engine appends to.
#[derive(Default)]
pub struct Recorder(Mutex<Vec<Submission>>);

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// Everything recorded since the last `take`, oldest first.
    pub fn take(&self) -> Vec<Submission> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

/// An [`IoQueue`] that notes each submission's thread; everything passes
/// straight through.
pub struct RecordIo {
    inner: Arc<dyn IoQueue>,
    recorder: Arc<Recorder>,
    backend: String,
}

impl RecordIo {
    pub fn wrap(inner: Arc<dyn IoQueue>, backend: String, recorder: &Arc<Recorder>) -> Arc<dyn IoQueue> {
        let recorder = Arc::clone(recorder);
        Arc::new(Self {
            inner,
            recorder,
            backend,
        })
    }

    fn note(&self, write: bool, requests: usize) {
        let thread = std::thread::current();
        self.recorder.0.lock().unwrap().push(Submission {
            backend: self.backend.clone(),
            write,
            requests,
            thread: thread.id(),
            thread_name: thread.name().unwrap_or_default().to_owned(),
        });
    }
}

impl IoQueue for RecordIo {
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        self.note(false, reqs.len());
        self.inner.submit_read(reqs)
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        self.note(true, reqs.len());
        self.inner.submit_write(reqs)
    }

    fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
        self.inner.wait(ticket)
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&self) {
        self.inner.reset_io_stats()
    }

    fn queue_depth_hint(&self) -> Option<usize> {
        self.inner.queue_depth_hint()
    }

    fn reclaim_to(&self, len: u64) -> IoResult<()> {
        self.inner.reclaim_to(len)
    }
}

/// Puts every shard store (`store{i}`) and shard WAL (`wal{i}`) of `backends`
/// behind `recorder`. The epoch log stays bare: its forces are the caller's on
/// every route.
pub fn record_shards(backends: &mut EngineBackends, recorder: &Arc<Recorder>) {
    for (i, store) in backends.shard_stores.iter_mut().enumerate() {
        *store = RecordIo::wrap(Arc::clone(store), format!("store{i}"), recorder);
    }
    for (i, wal) in backends.shard_wals.iter_mut().enumerate() {
        *wal = RecordIo::wrap(Arc::clone(wal), format!("wal{i}"), recorder);
    }
}
