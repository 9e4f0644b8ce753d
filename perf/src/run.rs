//! Segments and windows: how a workload is driven, timed and checked.
//!
//! A window is a run of equal-op **segments**. A segment's inputs are generated
//! before its clock starts and its answers are checked after the clock stops,
//! so wall time, CPU time and the allocation count of a segment cover only the
//! calls into the system under test. The three direct workloads are one driver
//! thread issuing [`Call`]s against a [`Target`] (the engine, or the bare tree
//! of the direct-core leg); `serve_mixed` is two closed-loop client threads
//! behind `EngineService`.

use crate::alloc;
use crate::gen::{self, Rng, Zipf, KEY_STRIDE};
use crate::setup::{Kind, Spec, BATCH, RANGE_ENTRIES};
use crate::sys;
use crate::trace::{Span, Tracer};
use engine::ShardedPioEngine;
use pio::IoResult;
use pio_btree::PioBTree;
use service::{EngineService, Request, Response, ResponseBody, ServiceError, ServiceHandle};
use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients of `serve_mixed`: two, so that two requests can meet in a batch.
pub const CLIENTS: usize = 2;
/// Zipfian skew of `serve_mixed`.
const THETA: f64 = 0.9;

// ------------------------------------------------------------------ statistics --

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

// ----------------------------------------------------------------------- calls --

pub enum Call {
    Lookup(Vec<u64>),
    Range {
        lo: u64,
        hi: u64,
    },
    Insert(Vec<(u64, u64)>),
    /// Explicit checkpoint: part of `write_flush`'s window, not one of its calls.
    Checkpoint,
}

pub enum Reply {
    Values(Vec<Option<u64>>),
    Entries(Vec<(u64, u64)>),
    Done,
}

impl Call {
    /// Ops this call attempts: looked-up keys, scan entries due, inserted entries.
    pub fn ops(&self) -> u64 {
        match self {
            Call::Lookup(keys) => keys.len() as u64,
            Call::Range { lo, hi } => (hi - lo) / KEY_STRIDE,
            Call::Insert(entries) => entries.len() as u64,
            Call::Checkpoint => 0,
        }
    }

    fn span_name(&self) -> &'static str {
        match self {
            Call::Lookup(_) => "engine.multi_search",
            Call::Range { .. } => "engine.range_search",
            Call::Insert(_) => "engine.insert_batch",
            Call::Checkpoint => "engine.checkpoint",
        }
    }

    /// Ops of this call that failed: an error or a refusal fails all of them, a
    /// wrong answer fails the keys or entries it got wrong.
    fn failed_ops(&self, reply: &IoResult<Reply>) -> u64 {
        match (self, reply) {
            (Call::Lookup(keys), Ok(Reply::Values(values))) => wrong_values(keys, values, gen::expected_preloaded),
            (Call::Range { lo, hi }, Ok(Reply::Entries(entries))) => wrong_scan(*lo, *hi, entries),
            (Call::Insert(_) | Call::Checkpoint, Ok(Reply::Done)) => 0,
            // A failed checkpoint attempts no ops of its own: charge one.
            _ => self.ops().max(1),
        }
    }
}

fn wrong_values(keys: &[u64], values: &[Option<u64>], expect: impl Fn(u64) -> Option<u64>) -> u64 {
    if keys.len() != values.len() {
        return keys.len() as u64;
    }
    keys.iter().zip(values).filter(|(&k, &v)| v != expect(k)).count() as u64
}

/// A scan of preloaded keys `[lo, hi)`: count, order, both boundaries, every value.
fn wrong_scan(lo: u64, hi: u64, entries: &[(u64, u64)]) -> u64 {
    let due = (hi - lo) / KEY_STRIDE;
    let right = entries
        .iter()
        .enumerate()
        .filter(|&(i, &(k, v))| k == lo + i as u64 * KEY_STRIDE && k < hi && v == gen::value_of(k))
        .count() as u64;
    // Missing, misplaced and surplus entries all count.
    due.max(entries.len() as u64) - right.min(due)
}

/// What a [`Call`] is issued against.
pub trait Target {
    fn exec(&mut self, call: &Call) -> IoResult<Reply>;
    /// Simulated I/O time consumed so far, µs (schedule makespan for the engine).
    fn sim_us(&self) -> f64;
}

impl Target for Arc<ShardedPioEngine> {
    fn exec(&mut self, call: &Call) -> IoResult<Reply> {
        Ok(match call {
            Call::Lookup(keys) => Reply::Values(self.multi_search(keys)?),
            Call::Range { lo, hi } => Reply::Entries(self.range_search(*lo, *hi)?),
            Call::Insert(entries) => {
                self.insert_batch(entries)?;
                Reply::Done
            }
            Call::Checkpoint => {
                self.checkpoint()?;
                Reply::Done
            }
        })
    }

    fn sim_us(&self) -> f64 {
        self.scheduled_io_us()
    }
}

impl Target for PioBTree {
    fn exec(&mut self, call: &Call) -> IoResult<Reply> {
        Ok(match call {
            Call::Lookup(keys) => Reply::Values(self.multi_search(keys)?),
            Call::Range { lo, hi } => Reply::Entries(self.range_search(*lo, *hi)?),
            Call::Insert(entries) => {
                self.insert_batch(entries)?;
                Reply::Done
            }
            Call::Checkpoint => {
                let lsn = self.checkpoint()?;
                self.truncate_wal(lsn)?;
                Reply::Done
            }
        })
    }

    fn sim_us(&self) -> f64 {
        self.io_elapsed_us()
    }
}

// -------------------------------------------------------------------- segments --

/// One timed segment's measurements.
#[derive(Default)]
pub struct Segment {
    pub ops: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub allocs: u64,
    /// Latency of every call (service request), µs.
    pub call_us: Vec<f64>,
    /// Δ simulated time of every direct call, µs (traced pass only).
    pub sim_call_us: Vec<f64>,
    /// (wall µs, simulated µs) of every checkpoint.
    pub checkpoints: Vec<(f64, f64)>,
    /// `serve_mixed`: get and put latencies, and client-observed minus
    /// service-reported latency, µs.
    pub get_us: Vec<f64>,
    pub put_us: Vec<f64>,
    pub reply_overhead_us: Vec<f64>,
    /// `serve_mixed`: the service's own account of each request (`Response::timing`), µs.
    pub queue_us: Vec<f64>,
    pub service_us: Vec<f64>,
    pub total_us: Vec<f64>,
}

impl Segment {
    /// Adds `other`'s sums and samples to this segment's.
    fn absorb(&mut self, mut other: Segment) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.allocs += other.allocs;
        self.call_us.append(&mut other.call_us);
        self.sim_call_us.append(&mut other.sim_call_us);
        self.checkpoints.append(&mut other.checkpoints);
        self.get_us.append(&mut other.get_us);
        self.put_us.append(&mut other.put_us);
        self.reply_overhead_us.append(&mut other.reply_overhead_us);
        self.queue_us.append(&mut other.queue_us);
        self.service_us.append(&mut other.service_us);
        self.total_us.append(&mut other.total_us);
    }
}

/// Stops the process clocks of a segment.
struct Clocks {
    wall: Instant,
    cpu_s: f64,
    allocs: u64,
}

impl Clocks {
    fn start() -> Self {
        Clocks {
            allocs: alloc::allocations(),
            cpu_s: sys::process_cpu_s(),
            wall: Instant::now(),
        }
    }

    fn stop(self, seg: &mut Segment) {
        seg.wall_s = self.wall.elapsed().as_secs_f64();
        seg.cpu_s = sys::process_cpu_s() - self.cpu_s;
        seg.allocs = alloc::allocations() - self.allocs;
    }
}

/// A workload that can be run one segment at a time.
pub trait Workload {
    /// Generates a segment's inputs, runs it against the clock, checks its answers.
    fn segment(&mut self) -> Segment;
}

/// Everything a window of segments measured.
#[derive(Default)]
pub struct Window {
    /// Sums and concatenated samples over all segments.
    pub all: Segment,
    pub seg_ops_per_s: Vec<f64>,
    pub seg_cpu_us_per_op: Vec<f64>,
    pub seg_call_p50_us: Vec<f64>,
}

impl Window {
    fn push(&mut self, seg: Segment) {
        self.seg_ops_per_s.push(seg.ops as f64 / seg.wall_s);
        self.seg_cpu_us_per_op.push(seg.cpu_s * 1e6 / seg.ops as f64);
        self.seg_call_p50_us.push(median(&seg.call_us));
        self.all.absorb(seg);
    }

    /// Median over segments of process CPU time per op, µs.
    pub fn cpu_us_per_op(&self) -> f64 {
        median(&self.seg_cpu_us_per_op)
    }
}

/// Runs `count` more segments.
pub fn run_segments(workload: &mut dyn Workload, window: &mut Window, count: usize) {
    for _ in 0..count {
        window.push(workload.segment());
    }
}

/// Runs whole segments until `deadline` has passed.
pub fn run_until(workload: &mut dyn Workload, window: &mut Window, deadline: Instant) {
    while Instant::now() < deadline {
        window.push(workload.segment());
    }
}

/// Runs whole segments for `seconds` (at least one).
pub fn run_for(workload: &mut dyn Workload, seconds: f64) -> Window {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut window = Window::default();
    run_segments(workload, &mut window, 1);
    run_until(workload, &mut window, deadline);
    window
}

// ------------------------------------------------------------ direct workloads --

/// One driver thread issuing a workload's calls against a [`Target`].
pub struct Direct<T: Target> {
    pub target: T,
    spec: Spec,
    rng: Rng,
    zipf: Option<Zipf>,
    tracer: Option<Arc<Tracer>>,
    /// Every key an acked `insert_batch` carried, for the final read-back.
    pub inserted: Vec<u64>,
}

impl<T: Target> Direct<T> {
    pub fn new(target: T, spec: Spec, seed: u64, tracer: Option<Arc<Tracer>>) -> Self {
        Direct {
            target,
            spec,
            rng: Rng::new(seed, 1),
            zipf: (spec.kind == Kind::Serve).then(|| Zipf::new(spec.entries, THETA)),
            tracer,
            inserted: Vec::new(),
        }
    }

    fn next_calls(&mut self) -> Vec<Call> {
        let n = self.spec.entries;
        let rng = &mut self.rng;
        match self.spec.kind {
            Kind::Point => (0..self.spec.segment_calls)
                .map(|_| Call::Lookup(gen::lookup_batch(rng, n, BATCH)))
                .collect(),
            Kind::Range => (0..self.spec.segment_calls)
                .map(|_| {
                    let lo = rng.below(n - RANGE_ENTRIES) * KEY_STRIDE;
                    Call::Range {
                        lo,
                        hi: lo + RANGE_ENTRIES * KEY_STRIDE,
                    }
                })
                .collect(),
            Kind::Write => (0..self.spec.segment_calls)
                .map(|_| Call::Insert(gen::insert_batch(rng, n, BATCH)))
                .chain([Call::Checkpoint])
                .collect(),
            // The direct-core leg of `serve_mixed`: the clients' key choice and
            // read/write mix, as the full batches a perfect front end would form.
            // The checkpoint stands in for the engine's maintenance worker:
            // without it the leg's log overflows within seconds.
            Kind::Serve => {
                let zipf = self.zipf.as_ref().expect("serve specs carry a Zipfian");
                (0..self.spec.segment_calls * CLIENTS / BATCH)
                    .map(|_| {
                        let put = rng.below(4) == 0;
                        let keys = (0..BATCH).map(|_| zipf.scatter(zipf.rank(rng)) * KEY_STRIDE);
                        if put {
                            Call::Insert(keys.map(|k| (k + 3, gen::value_of(k + 3))).collect())
                        } else {
                            Call::Lookup(keys.collect())
                        }
                    })
                    .chain([Call::Checkpoint])
                    .collect()
            }
        }
    }
}

impl<T: Target> Workload for Direct<T> {
    fn segment(&mut self) -> Segment {
        let calls = self.next_calls();
        let tracer = self.tracer.as_deref().filter(|t| t.enabled());
        run_calls(&mut self.target, &calls, tracer, &mut self.inserted)
    }
}

/// Issues `calls` against the clock, then checks their answers; the keys of
/// every acked insert are added to `inserted`.
pub fn run_calls<T: Target>(
    target: &mut T,
    calls: &[Call],
    tracer: Option<&Tracer>,
    inserted: &mut Vec<u64>,
) -> Segment {
    let mut seg = Segment::default();
    let mut replies = Vec::with_capacity(calls.len());
    seg.call_us.reserve(calls.len());
    if tracer.is_some() {
        seg.sim_call_us.reserve(calls.len());
    }
    let clocks = Clocks::start();
    for call in calls {
        let is_checkpoint = matches!(call, Call::Checkpoint);
        let sample_sim = tracer.is_some() || is_checkpoint;
        let sim_before = if sample_sim { target.sim_us() } else { 0.0 };
        let span = tracer.map(|t| {
            let id = t.new_id();
            t.enter_call(id);
            (id, t.now_ns())
        });
        let start = Instant::now();
        let reply = target.exec(call);
        let wall_us = start.elapsed().as_secs_f64() * 1e6;
        if is_checkpoint {
            seg.checkpoints.push((wall_us, target.sim_us() - sim_before));
        } else {
            seg.call_us.push(wall_us);
            if tracer.is_some() {
                seg.sim_call_us.push(target.sim_us() - sim_before);
            }
        }
        if let (Some(t), Some((id, start_ns))) = (tracer, span) {
            t.enter_call(0);
            t.record(Span {
                id,
                parent: 0,
                name: call.span_name(),
                thread: Tracer::thread(),
                start_ns,
                end_ns: t.now_ns(),
            });
        }
        replies.push(reply);
    }
    clocks.stop(&mut seg);
    for (call, reply) in calls.iter().zip(&replies) {
        seg.ops += call.ops();
        seg.failed += call.failed_ops(reply);
        if let (Call::Insert(entries), Ok(_)) = (call, reply) {
            inserted.extend(entries.iter().map(|&(k, _)| k));
        }
    }
    seg
}

/// Reads back every key in `keys` through the engine; returns how many did not
/// come back with their value.
pub fn lost_keys(engine: &ShardedPioEngine, keys: &[u64]) -> u64 {
    keys.chunks(BATCH)
        .map(|chunk| match engine.multi_search(chunk) {
            Ok(values) => wrong_values(chunk, &values, |k| Some(gen::value_of(k))),
            Err(_) => chunk.len() as u64,
        })
        .sum()
}

/// Distinct keys of `keys` that are not preloaded ones.
pub fn distinct_new_keys(keys: &[u64]) -> u64 {
    let mut sorted: Vec<u64> = keys.iter().copied().filter(|k| !k.is_multiple_of(KEY_STRIDE)).collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len() as u64
}

// ------------------------------------------------------------------ serve_mixed --

struct ClientSegment {
    requests: Vec<Request>,
    call_us: Vec<f64>,
    replies: Vec<Result<Response, ServiceError>>,
}

struct Client {
    requests: Sender<Vec<Request>>,
    results: Receiver<ClientSegment>,
    thread: JoinHandle<()>,
    rng: Rng,
    /// Keys this client's acked puts wrote: it is their only writer.
    acked: HashSet<u64>,
}

fn client_loop(
    handle: ServiceHandle,
    tracer: Option<Arc<Tracer>>,
    requests: Receiver<Vec<Request>>,
    results: Sender<ClientSegment>,
) {
    while let Ok(batch) = requests.recv() {
        let tracer = tracer.as_deref().filter(|t| t.enabled());
        let mut call_us = Vec::with_capacity(batch.len());
        let mut replies = Vec::with_capacity(batch.len());
        for &request in &batch {
            let start_ns = tracer.map(|t| t.now_ns());
            let start = Instant::now();
            let reply = handle.request(request);
            call_us.push(start.elapsed().as_secs_f64() * 1e6);
            if let (Some(t), Some(start_ns)) = (tracer, start_ns) {
                t.record(Span {
                    id: t.new_id(),
                    parent: 0,
                    name: match request {
                        Request::Get { .. } => "service.get",
                        Request::Put { .. } => "service.put",
                        Request::Scan { .. } => "service.scan",
                    },
                    thread: Tracer::thread(),
                    start_ns,
                    end_ns: t.now_ns(),
                });
            }
            replies.push(reply);
        }
        let done = ClientSegment {
            requests: batch,
            call_us,
            replies,
        };
        if results.send(done).is_err() {
            return;
        }
    }
}

/// Two closed-loop clients behind `EngineService`: Zipfian keys, 75 % gets,
/// 25 % puts. Client `c` puts only keys `16·i + 1 + c`, so every key has one
/// writer and each get has exactly one right answer.
pub struct Serve {
    service: Option<EngineService>,
    clients: Vec<Client>,
    spec: Spec,
    zipf: Zipf,
}

impl Serve {
    pub fn start(engine: Arc<ShardedPioEngine>, spec: Spec, seed: u64, tracer: Option<Arc<Tracer>>) -> Self {
        let service = EngineService::start(engine);
        let clients = (0..CLIENTS)
            .map(|c| {
                let (requests, client_requests) = channel();
                let (client_results, results) = channel();
                let handle = service.handle();
                let tracer = tracer.clone();
                let thread = std::thread::Builder::new()
                    .name(format!("perf-client-{c}"))
                    .spawn(move || client_loop(handle, tracer, client_requests, client_results))
                    .expect("spawn client thread");
                Client {
                    requests,
                    results,
                    thread,
                    rng: Rng::new(seed, 16 + c as u64),
                    acked: HashSet::new(),
                }
            })
            .collect();
        Serve {
            service: Some(service),
            clients,
            spec,
            zipf: Zipf::new(spec.entries, THETA),
        }
    }

    fn next_requests(&mut self, client: usize) -> Vec<Request> {
        let rng = &mut self.clients[client].rng;
        (0..self.spec.segment_calls)
            .map(|_| {
                let base = self.zipf.scatter(self.zipf.rank(rng)) * KEY_STRIDE;
                let own = base + 1 + client as u64;
                match rng.below(16) {
                    0..=3 => Request::Put {
                        key: own,
                        value: gen::value_of(own),
                    },
                    4..=6 => Request::Get { key: own },
                    _ => Request::Get { key: base },
                }
            })
            .collect()
    }

    /// Keys acked puts have written so far (each client's are its own).
    pub fn acked_keys(&self) -> u64 {
        self.clients.iter().map(|c| c.acked.len() as u64).sum()
    }

    pub fn stats(&self) -> service::ServiceStats {
        self.service.as_ref().expect("service runs until finish").stats()
    }

    /// Stops the clients and the service; returns every key an acked put wrote.
    pub fn finish(mut self) -> Vec<u64> {
        let (acked, clients_ok) = self.stop();
        assert!(clients_ok, "a client thread panicked");
        acked
    }

    fn stop(&mut self) -> (Vec<u64>, bool) {
        let mut acked = Vec::new();
        let mut clients_ok = true;
        for client in self.clients.drain(..) {
            drop(client.requests);
            clients_ok &= client.thread.join().is_ok();
            acked.extend(client.acked);
        }
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        (acked, clients_ok)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Workload for Serve {
    fn segment(&mut self) -> Segment {
        let batches: Vec<Vec<Request>> = (0..CLIENTS).map(|c| self.next_requests(c)).collect();
        let mut seg = Segment::default();
        let clocks = Clocks::start();
        for (client, batch) in self.clients.iter().zip(batches) {
            client.requests.send(batch).expect("client thread alive");
        }
        let done: Vec<ClientSegment> = self
            .clients
            .iter()
            .map(|c| c.results.recv().expect("client thread alive"))
            .collect();
        clocks.stop(&mut seg);
        for (client, done) in self.clients.iter_mut().zip(done) {
            for ((request, reply), us) in done.requests.iter().zip(&done.replies).zip(&done.call_us) {
                seg.ops += 1;
                let ok = match (request, reply) {
                    (Request::Put { key, .. }, Ok(r)) if r.body == ResponseBody::Done => {
                        client.acked.insert(*key);
                        seg.put_us.push(*us);
                        true
                    }
                    (Request::Get { key }, Ok(r)) => {
                        seg.get_us.push(*us);
                        let expected = if key.is_multiple_of(KEY_STRIDE) || client.acked.contains(key) {
                            Some(gen::value_of(*key))
                        } else {
                            None
                        };
                        r.body == ResponseBody::Value(expected)
                    }
                    _ => false,
                };
                seg.failed += u64::from(!ok);
                if let Ok(r) = reply {
                    seg.reply_overhead_us.push(us - r.timing.total_us as f64);
                    seg.queue_us.push(r.timing.queue_us as f64);
                    seg.service_us.push(r.timing.service_us as f64);
                    seg.total_us.push(r.timing.total_us as f64);
                }
            }
            seg.call_us.extend_from_slice(&done.call_us);
        }
        seg
    }
}
