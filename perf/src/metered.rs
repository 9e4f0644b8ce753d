//! `MeteredIo`: the benchmark's own [`IoQueue`] wrapper.
//!
//! The engine accepts caller-supplied queues (`EngineBackends`), so the `pio`
//! and `ssd-sim` layers can be measured from outside: one wrapper sits around
//! each partition (what a shard's store or log submits) and one around the
//! device queue below them. The difference between the two is the `pio` layer;
//! what the device wrapper sees is `ssd-sim`. While the tracer is disabled a
//! wrapper only forwards.

use crate::trace::{Span, Tracer};
use pio::{Completion, IoQueue, IoResult, IoStats, ReadRequest, Ticket, TryComplete, WriteRequest};
use ssd_sim::SsdRequest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Requests kept for the `ssd-sim` replay leg; beyond this the trace is a prefix.
const REPLAY_REQUEST_CAP: usize = 400_000;

#[derive(Debug, Clone, Default)]
pub struct MeterCounts {
    pub read_batches: u64,
    pub write_batches: u64,
    pub read_reqs: u64,
    pub write_reqs: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// Σ over submissions of the tickets in flight right after the submission.
    pub inflight_sum: u64,
    /// Simulated completion latency of every reaped ticket, µs.
    pub sim_wait_us: Vec<f64>,
    /// Wall time spent inside `submit_*` / `wait` / `try_complete`, ns.
    pub host_ns: u64,
}

impl MeterCounts {
    pub fn merge(&mut self, other: &MeterCounts) {
        self.read_batches += other.read_batches;
        self.write_batches += other.write_batches;
        self.read_reqs += other.read_reqs;
        self.write_reqs += other.write_reqs;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.inflight_sum += other.inflight_sum;
        self.sim_wait_us.extend_from_slice(&other.sim_wait_us);
        self.host_ns += other.host_ns;
    }

    pub fn batches(&self) -> u64 {
        self.read_batches + self.write_batches
    }
}

struct Pending {
    span: u64,
    parent: u64,
    thread: u32,
    start_ns: u64,
    name: &'static str,
}

#[derive(Default)]
struct State {
    counts: MeterCounts,
    inflight: HashMap<u64, Pending>,
    /// Device-level request trace: one inner `Vec` per submitted batch.
    batches: Vec<Vec<SsdRequest>>,
    recorded_requests: usize,
}

pub struct MeteredIo {
    inner: Arc<dyn IoQueue>,
    tracer: Arc<Tracer>,
    read_name: &'static str,
    write_name: &'static str,
    /// Whether to keep the request trace (the device wrapper does).
    keep_requests: bool,
    host_ns: AtomicU64,
    state: Mutex<State>,
}

impl MeteredIo {
    pub fn partition(inner: Arc<dyn IoQueue>, tracer: Arc<Tracer>) -> Self {
        Self::new(inner, tracer, "pio.read_ticket", "pio.write_ticket", false)
    }

    pub fn device(inner: Arc<dyn IoQueue>, tracer: Arc<Tracer>) -> Self {
        Self::new(inner, tracer, "ssd-sim.read_ticket", "ssd-sim.write_ticket", true)
    }

    fn new(
        inner: Arc<dyn IoQueue>,
        tracer: Arc<Tracer>,
        read_name: &'static str,
        write_name: &'static str,
        keep_requests: bool,
    ) -> Self {
        MeteredIo {
            inner,
            tracer,
            read_name,
            write_name,
            keep_requests,
            host_ns: AtomicU64::new(0),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("no meter user panics holding the lock")
    }

    /// Everything counted since the last call.
    pub fn take_counts(&self) -> MeterCounts {
        let mut counts = std::mem::take(&mut self.state().counts);
        counts.host_ns = self.host_ns.swap(0, Ordering::Relaxed);
        counts
    }

    /// The recorded request trace (empty for partition wrappers).
    pub fn take_batches(&self) -> Vec<Vec<SsdRequest>> {
        let mut state = self.state();
        state.recorded_requests = 0;
        std::mem::take(&mut state.batches)
    }

    fn timed<R>(&self, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = call();
        // A statistic: it publishes no other data.
        self.host_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Runs a submission as span `span`, so that a wrapper below this one
    /// parents its own ticket span to it. Returns the parent of `span`: the
    /// wrapper above, else the engine call in progress.
    fn submit<R>(&self, span: u64, call: impl FnOnce() -> R) -> (R, u64) {
        let outer = Tracer::swap_submitting(span);
        let out = self.timed(call);
        Tracer::swap_submitting(outer);
        (out, if outer != 0 { outer } else { self.tracer.current_call() })
    }

    fn submitted(
        &self,
        ticket: &Ticket,
        (span, parent): (u64, u64),
        start_ns: u64,
        name: &'static str,
        sim: Vec<SsdRequest>,
    ) {
        if ticket.is_empty_batch() {
            return;
        }
        let bytes: u64 = sim.iter().map(|r| r.len).sum();
        let mut state = self.state();
        if name == self.read_name {
            state.counts.read_batches += 1;
            state.counts.read_reqs += sim.len() as u64;
            state.counts.read_bytes += bytes;
        } else {
            state.counts.write_batches += 1;
            state.counts.write_reqs += sim.len() as u64;
            state.counts.write_bytes += bytes;
        }
        state.inflight.insert(
            ticket.id(),
            Pending {
                span,
                parent,
                thread: Tracer::thread(),
                start_ns,
                name,
            },
        );
        state.counts.inflight_sum += state.inflight.len() as u64;
        if self.keep_requests && state.recorded_requests < REPLAY_REQUEST_CAP {
            state.recorded_requests += sim.len();
            state.batches.push(sim);
        }
    }

    fn reaped(&self, id: u64, completion: Option<&Completion>) {
        let mut state = self.state();
        let Some(pending) = state.inflight.remove(&id) else {
            return;
        };
        if let Some(done) = completion {
            state.counts.sim_wait_us.push(done.stats.elapsed_us);
        }
        drop(state);
        self.tracer.record(Span {
            id: pending.span,
            parent: pending.parent,
            name: pending.name,
            thread: pending.thread,
            start_ns: pending.start_ns,
            end_ns: self.tracer.now_ns(),
        });
    }
}

impl IoQueue for MeteredIo {
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        if !self.tracer.enabled() {
            return self.inner.submit_read(reqs);
        }
        let start_ns = self.tracer.now_ns();
        let span = self.tracer.new_id();
        let (ticket, parent) = self.submit(span, || self.inner.submit_read(reqs));
        let ticket = ticket?;
        let sim = reqs.iter().map(|r| SsdRequest::read(r.offset, r.len as u64)).collect();
        self.submitted(&ticket, (span, parent), start_ns, self.read_name, sim);
        Ok(ticket)
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        if !self.tracer.enabled() {
            return self.inner.submit_write(reqs);
        }
        let start_ns = self.tracer.now_ns();
        let span = self.tracer.new_id();
        let (ticket, parent) = self.submit(span, || self.inner.submit_write(reqs));
        let ticket = ticket?;
        let sim = reqs
            .iter()
            .map(|r| SsdRequest::write(r.offset, r.data.len() as u64))
            .collect();
        self.submitted(&ticket, (span, parent), start_ns, self.write_name, sim);
        Ok(ticket)
    }

    fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
        if !self.tracer.enabled() {
            return self.inner.wait(ticket);
        }
        let id = ticket.id();
        let done = self.timed(|| self.inner.wait(ticket));
        self.reaped(id, done.as_ref().ok());
        done
    }

    fn try_complete(&self, ticket: Ticket) -> IoResult<TryComplete> {
        if !self.tracer.enabled() {
            return self.inner.try_complete(ticket);
        }
        let id = ticket.id();
        let polled = self.timed(|| self.inner.try_complete(ticket));
        match &polled {
            Ok(TryComplete::Ready(done)) => self.reaped(id, Some(done)),
            Ok(TryComplete::Pending(_)) => {}
            Err(_) => self.reaped(id, None),
        }
        polled
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
