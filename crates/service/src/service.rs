//! The service itself: admission control, per-shard batch builders, and
//! per-request accounting — all of it on the callers' threads. The service
//! owns no thread: whoever opens or fills a batch executes it.
//!
//! ## Request lifecycle
//!
//! ```text
//! client A (finds no builder)        client B (finds A's builder)       engine
//! ───────────────────────────        ────────────────────────────       ──────
//! handle.get(k1)
//!   opens the (shard, gets) builder,
//!   becomes its leader, waits on its   handle.get(k2)
//!   own reply ≤ delay budget             joins the builder, waits on
//!        │                               its own reply
//!        │ budget over: takes the builder it opened ───────────────────▶ multi_search([k1, k2])
//!        │ answers B, answers itself                                      on engine-shard-N
//!        ▼                                   ▼
//!   Response                             Response
//!
//! handle.put(k, v)   same, per (shard, puts) builder ──────────────────▶ insert_batch
//!                                                                        (flush epoch forced,
//!                                                                         THEN every ack)
//! handle.scan(lo, hi)   no coalescing, runs on its caller ─────────────▶ range_search
//! ```
//!
//! * Gets destined for the same shard coalesce into one engine
//!   [`multi_search`](ShardedPioEngine::multi_search) — the MPSearch path, so
//!   independent clients' point reads share one psync stream.
//! * Puts coalesce into one [`insert_batch`](ShardedPioEngine::insert_batch),
//!   which drives the engine's cross-shard flush-epoch machinery; the batch is
//!   the *group commit*: one forced epoch covers every client in the batch, and
//!   no put is acked before that call returns (i.e. before the epoch committed).
//! * A builder leaves its slot exactly once, taken under the admission lock by
//!   the thread that then runs it: the request that fills it to
//!   `max_batch_size` (size-triggered), its leader once the request that opened
//!   it has waited `max_batch_delay_us` (budget-expired), or
//!   [`EngineService::shutdown`] (drain). A leader names the builder it opened
//!   by a generation number, so it never takes a successor in the same slot —
//!   and no admitted request ever waits in a builder beyond the budget.
//! * Scans bypass the builders: they are not coalescible point work.
//!
//! Locking: the admission lock guards the builders and is never held across an
//! engine call. Beside it there is only the shutdown barrier `in_flight`: a
//! request holds it shared for its whole life (taken before the admission
//! lock), and `shutdown` takes it exclusively after it has released the
//! admission lock for the last time.
//!
//! ## Live shard boundaries
//!
//! The builders bin requests by [`ShardedPioEngine::shard_for`], which is
//! **advisory**: an elastic rebalance (the engine's `rebalance` module) may
//! move a boundary between binning and execution. That is safe by
//! construction — the engine re-partitions every batch internally under its
//! own routing lock, so a "mis-binned" batch is simply split across the right
//! shards when it executes; no request errors, none is stalled beyond its
//! batch budget, and the batch's group-commit epoch still covers all of it.
//! The binning merely decides *which builder coalesces with which*, so at
//! most one batch per shard rides with stale affinity; from the next flush
//! epoch on, the builders bin against the committed boundaries
//! (`routing_version` in [`engine::EngineStats`] tracks the change-over).

use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::protocol::{Request, RequestTiming, Response, ResponseBody, ServiceError};
use btree::{Key, Value};
use engine::ShardedPioEngine;
use pio::IoResult;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

type Reply = Result<Response, ServiceError>;

/// One admitted, not-yet-answered point request.
struct Waiter {
    enqueued: Instant,
    ack: mpsc::Sender<Reply>,
}

/// What made a batch leave its builder.
#[derive(Clone, Copy)]
enum Trigger {
    /// The builder reached `max_batch_size`.
    Size,
    /// The request that opened the builder exhausted the latency budget.
    Budget,
    /// Shutdown drained the builder.
    Drain,
}

/// The engine work one builder accumulates: a single engine call's worth.
enum Work {
    /// Coalesced gets for one shard → `multi_search`.
    Reads(Vec<Key>),
    /// Coalesced puts for one shard → `insert_batch` (group commit).
    Writes(Vec<(Key, Value)>),
}

/// An open builder: the requests of one kind admitted for one shard since the
/// slot was last emptied.
struct Builder {
    work: Work,
    /// One waiter per request, in the order of `work`'s payload.
    waiters: Vec<Waiter>,
    /// Tells this builder from its successors in the same slot.
    generation: u64,
}

/// State behind the admission lock: the open builders and the closed flag.
struct Admission {
    /// Slot `2 * shard` holds the shard's gets, `2 * shard + 1` its puts.
    builders: Vec<Option<Builder>>,
    /// Generation of the most recently opened builder.
    generation: u64,
    closed: bool,
}

/// What admission made of a point request's thread.
enum Role {
    /// It filled the builder and took it: run the batch now.
    Run(Builder),
    /// It opened the builder: run it once the budget is over, unless another
    /// thread took it first.
    Lead { slot: usize, generation: u64 },
    /// It joined an open builder: whoever takes that answers it.
    Follow,
}

#[derive(Default)]
struct Counters {
    gets: AtomicU64,
    puts: AtomicU64,
    scans: AtomicU64,
    batches_formed: AtomicU64,
    batched_requests: AtomicU64,
    size_triggered_flushes: AtomicU64,
    budget_expired_flushes: AtomicU64,
    drain_flushes: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
    sheds: AtomicU64,
}

/// Everything the service and its handles share.
struct ServiceShared {
    engine: Arc<ShardedPioEngine>,
    max_batch_size: usize,
    max_batch_delay: Duration,
    /// Per-request deadline ([`engine::EngineConfig::request_deadline_ms`]);
    /// `None` waits indefinitely.
    request_deadline: Option<Duration>,
    /// Bound on `unanswered`
    /// ([`engine::EngineConfig::admission_queue_limit`]); `None` admits all.
    queue_limit: Option<usize>,
    /// Requests admitted and not yet answered.
    unanswered: AtomicUsize,
    admission: Mutex<Admission>,
    /// Held shared by every request from admission to return; shutdown takes
    /// it exclusively to wait out the batches other threads are running.
    in_flight: RwLock<()>,
    counters: Counters,
    e2e: LatencyHistogram,
    queue_wait: LatencyHistogram,
    batch_service: LatencyHistogram,
}

impl ServiceShared {
    /// Serves one request on the calling thread, shedding it up front when
    /// `admission_queue_limit` requests are already waiting for their answers:
    /// admitting more would only stretch every one of those waits, and the
    /// client gets a clean retryable signal to back off on instead.
    fn submit(&self, request: Request) -> Reply {
        let ahead = self.unanswered.fetch_add(1, Ordering::Relaxed);
        let reply = if self.queue_limit.is_some_and(|limit| ahead >= limit) {
            self.counters.sheds.fetch_add(1, Ordering::Relaxed);
            Err(ServiceError::Overloaded)
        } else {
            self.serve(request)
        };
        self.unanswered.fetch_sub(1, Ordering::Relaxed);
        reply
    }

    /// Admits the request and returns its response, running the engine call
    /// that carries it if this thread opened or filled its batch (or if it is
    /// a scan) and waiting for the thread that does otherwise.
    fn serve(&self, request: Request) -> Reply {
        let _in_flight = self
            .in_flight
            .read()
            .expect("in-flight lock is never held across a panic");
        let enqueued = Instant::now();
        let (key, value) = match request {
            Request::Get { key } => {
                self.counters.gets.fetch_add(1, Ordering::Relaxed);
                (key, None)
            }
            Request::Put { key, value } => {
                self.counters.puts.fetch_add(1, Ordering::Relaxed);
                (key, Some(value))
            }
            Request::Scan { lo, hi } => {
                self.counters.scans.fetch_add(1, Ordering::Relaxed);
                return self.scan(lo, hi, enqueued);
            }
        };
        let (ack, reply) = mpsc::channel();
        let (batch, trigger) = match self.admit(key, value, Waiter { enqueued, ack })? {
            Role::Run(batch) => (batch, Trigger::Size),
            Role::Lead { slot, generation } => {
                // A leader cannot abandon its followers, so a deadline shorter
                // than the budget flushes the batch early instead of timing out.
                let wait = self
                    .request_deadline
                    .map_or(self.max_batch_delay, |d| d.min(self.max_batch_delay));
                match reply.recv_timeout((enqueued + wait).saturating_duration_since(Instant::now())) {
                    Err(RecvTimeoutError::Timeout) => match self.take(slot, generation) {
                        Some(batch) => (batch, Trigger::Budget),
                        None => return self.await_reply(&reply, enqueued),
                    },
                    // A size trigger or the drain took the builder and ran it.
                    answered => return answered.unwrap_or(Err(ServiceError::Lost)),
                }
            }
            Role::Follow => return self.await_reply(&reply, enqueued),
        };
        self.run_batch(batch, trigger);
        reply.try_recv().unwrap_or(Err(ServiceError::Lost))
    }

    /// Waits for the thread whose batch carries this request; the request's
    /// deadline bounds the wait.
    fn await_reply(&self, reply: &mpsc::Receiver<Reply>, enqueued: Instant) -> Reply {
        let Some(deadline) = self.request_deadline else {
            return reply.recv().unwrap_or(Err(ServiceError::Lost));
        };
        match reply.recv_timeout((enqueued + deadline).saturating_duration_since(Instant::now())) {
            // The batch will still execute and answer into the dropped channel
            // — the *outcome* is unknown, but the client's wait is cleanly over
            // and the request is safe to resubmit.
            Err(RecvTimeoutError::Timeout) => {
                self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Timeout)
            }
            answered => answered.unwrap_or(Err(ServiceError::Lost)),
        }
    }

    /// Puts a get (`value` is `None`) or a put into its shard's builder,
    /// opening one if the slot is empty and taking it if this request fills it.
    fn admit(&self, key: Key, value: Option<Value>, waiter: Waiter) -> Result<Role, ServiceError> {
        let slot = 2 * self.engine.shard_for(key) + usize::from(value.is_some());
        let mut admission = self.admission.lock().expect("admission poisoned");
        if admission.closed {
            return Err(ServiceError::Closed);
        }
        let Admission {
            builders, generation, ..
        } = &mut *admission;
        let opened = builders[slot].is_none();
        let builder = builders[slot].get_or_insert_with(|| {
            *generation += 1;
            Builder {
                work: match value {
                    None => Work::Reads(Vec::new()),
                    Some(_) => Work::Writes(Vec::new()),
                },
                waiters: Vec::new(),
                generation: *generation,
            }
        });
        match (&mut builder.work, value) {
            (Work::Reads(keys), None) => keys.push(key),
            (Work::Writes(entries), Some(value)) => entries.push((key, value)),
            _ => unreachable!("a slot's parity fixes the kind of its builders"),
        }
        builder.waiters.push(waiter);
        Ok(if builder.waiters.len() >= self.max_batch_size {
            Role::Run(builders[slot].take().expect("builder just filled"))
        } else if opened {
            Role::Lead {
                slot,
                generation: builder.generation,
            }
        } else {
            Role::Follow
        })
    }

    /// Takes the builder in `slot` if it is still the one `generation` names.
    fn take(&self, slot: usize, generation: u64) -> Option<Builder> {
        let mut admission = self.admission.lock().expect("admission poisoned");
        admission.builders[slot].take_if(|builder| builder.generation == generation)
    }

    /// Runs a taken batch's engine call on the calling thread and answers every
    /// waiter with its result and timing. Puts are acked only after
    /// `insert_batch` returned, i.e. after the covering flush epoch was forced
    /// — the group-commit durability contract.
    fn run_batch(&self, batch: Builder, trigger: Trigger) {
        let flushes = match trigger {
            Trigger::Size => &self.counters.size_triggered_flushes,
            Trigger::Budget => &self.counters.budget_expired_flushes,
            Trigger::Drain => &self.counters.drain_flushes,
        };
        flushes.fetch_add(1, Ordering::Relaxed);
        self.counters.batches_formed.fetch_add(1, Ordering::Relaxed);
        self.counters
            .batched_requests
            .fetch_add(batch.waiters.len() as u64, Ordering::Relaxed);

        let (begun, service_us, outcome) = self.engine_call::<Vec<ResponseBody>>(|engine| match &batch.work {
            Work::Reads(keys) => engine
                .multi_search(keys)
                .map(|values| values.into_iter().map(ResponseBody::Value).collect()),
            Work::Writes(entries) => engine
                .insert_batch(entries)
                .map(|()| vec![ResponseBody::Done; entries.len()]),
        });
        match outcome {
            Ok(bodies) => {
                debug_assert_eq!(bodies.len(), batch.waiters.len());
                for (waiter, body) in batch.waiters.into_iter().zip(bodies) {
                    let timing = self.record(waiter.enqueued, begun, service_us);
                    let _ = waiter.ack.send(Ok(Response { body, timing }));
                }
            }
            Err(err) => {
                for waiter in batch.waiters {
                    let _ = waiter.ack.send(Err(err.clone()));
                }
            }
        }
    }

    /// Runs a scan on its caller, unless the service is closed.
    fn scan(&self, lo: Key, hi: Key, enqueued: Instant) -> Reply {
        if self.admission.lock().expect("admission poisoned").closed {
            return Err(ServiceError::Closed);
        }
        let (begun, service_us, outcome) = self.engine_call(|engine| engine.range_search(lo, hi));
        outcome.map(|entries| Response {
            body: ResponseBody::Entries(entries),
            timing: self.record(enqueued, begun, service_us),
        })
    }

    /// Runs and times one engine call: when it began, how many microseconds it
    /// took, what it returned. A panic inside the engine must not unwind into a
    /// client that merely happened to lead the batch, nor leave its followers
    /// waiting: it becomes [`ServiceError::Lost`] for every request the call
    /// carried, and the next request finds the service as it was.
    fn engine_call<T>(
        &self,
        call: impl FnOnce(&ShardedPioEngine) -> IoResult<T>,
    ) -> (Instant, u64, Result<T, ServiceError>) {
        let begun = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| call(&self.engine)))
            .map_or(Err(ServiceError::Lost), |returned| returned.map_err(ServiceError::from));
        if outcome.is_err() {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        (begun, begun.elapsed().as_micros() as u64, outcome)
    }

    /// Times one answered request (admission → engine call began → now) into
    /// the three histograms.
    fn record(&self, enqueued: Instant, begun: Instant, service_us: u64) -> RequestTiming {
        let timing = RequestTiming {
            queue_us: begun.duration_since(enqueued).as_micros() as u64,
            service_us,
            total_us: enqueued.elapsed().as_micros() as u64,
        };
        self.queue_wait.record(timing.queue_us);
        self.batch_service.record(timing.service_us);
        self.e2e.record(timing.total_us);
        timing
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            gets: self.counters.gets.load(Ordering::Relaxed),
            puts: self.counters.puts.load(Ordering::Relaxed),
            scans: self.counters.scans.load(Ordering::Relaxed),
            batches_formed: self.counters.batches_formed.load(Ordering::Relaxed),
            batched_requests: self.counters.batched_requests.load(Ordering::Relaxed),
            size_triggered_flushes: self.counters.size_triggered_flushes.load(Ordering::Relaxed),
            budget_expired_flushes: self.counters.budget_expired_flushes.load(Ordering::Relaxed),
            drain_flushes: self.counters.drain_flushes.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            timeouts: self.counters.timeouts.load(Ordering::Relaxed),
            sheds: self.counters.sheds.load(Ordering::Relaxed),
            e2e: self.e2e.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            batch_service: self.batch_service.snapshot(),
        }
    }
}

/// The running service. It has no threads of its own — every request is served
/// on the thread that submitted it. Create with [`EngineService::start`], call
/// through [`ServiceHandle`]s, stop with [`EngineService::shutdown`] (dropping
/// the service shuts it down too).
pub struct EngineService {
    shared: Arc<ServiceShared>,
}

impl EngineService {
    /// Starts the front end over `engine`, reading its knobs
    /// (`max_batch_delay_us`, `max_batch_size`, `request_deadline_ms`,
    /// `admission_queue_limit`) from the engine's
    /// [`EngineConfig`](engine::EngineConfig).
    pub fn start(engine: Arc<ShardedPioEngine>) -> Self {
        let config = engine.config();
        let shared = Arc::new(ServiceShared {
            max_batch_size: config.max_batch_size,
            max_batch_delay: Duration::from_micros(config.max_batch_delay_us),
            request_deadline: config.request_deadline_ms.map(Duration::from_millis),
            queue_limit: config.admission_queue_limit,
            unanswered: AtomicUsize::new(0),
            admission: Mutex::new(Admission {
                builders: (0..2 * engine.shard_count()).map(|_| None).collect(),
                generation: 0,
                closed: false,
            }),
            in_flight: RwLock::new(()),
            counters: Counters::default(),
            e2e: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            batch_service: LatencyHistogram::new(),
            engine,
        });
        Self { shared }
    }

    /// A cheap, cloneable handle for submitting requests from any thread.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The engine behind the service.
    pub fn engine(&self) -> &Arc<ShardedPioEngine> {
        &self.shared.engine
    }

    /// A point-in-time snapshot of the service's accounting.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Stops admission, runs every still-open builder on the calling thread
    /// (each parked request gets its real answer, not an error), waits until
    /// every request admitted before the stop has returned to its caller, and
    /// returns the final accounting. Requests submitted after shutdown fail
    /// with [`ServiceError::Closed`].
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop();
        self.shared.stats()
    }

    fn stop(&mut self) {
        let drained: Vec<Builder> = {
            let mut admission = self.shared.admission.lock().expect("admission poisoned");
            admission.closed = true;
            admission.builders.iter_mut().filter_map(Option::take).collect()
        };
        for batch in drained {
            self.shared.run_batch(batch, Trigger::Drain);
        }
        drop(self.shared.in_flight.write());
    }
}

impl Drop for EngineService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A cloneable client handle onto a running [`EngineService`]. Every method
/// blocks the calling thread until the response arrives; call from as many
/// threads as you like.
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<ServiceShared>,
}

impl ServiceHandle {
    /// Submits any [`Request`].
    pub fn request(&self, request: Request) -> Result<Response, ServiceError> {
        self.shared.submit(request)
    }

    /// Point lookup.
    pub fn get(&self, key: Key) -> Result<Response, ServiceError> {
        self.request(Request::Get { key })
    }

    /// Insert-or-update; the returned ack implies group-commit durability (the
    /// covering flush epoch was forced before the response was sent).
    pub fn put(&self, key: Key, value: Value) -> Result<Response, ServiceError> {
        self.request(Request::Put { key, value })
    }

    /// Range scan over `[lo, hi)`.
    pub fn scan(&self, lo: Key, hi: Key) -> Result<Response, ServiceError> {
        self.request(Request::Scan { lo, hi })
    }

    /// A point-in-time snapshot of the service's accounting.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }
}

impl workload::ServiceTarget for ServiceHandle {
    type Error = ServiceError;

    fn get(&self, key: u64) -> Result<Option<u64>, ServiceError> {
        Ok(ServiceHandle::get(self, key)?.value())
    }

    fn put(&self, key: u64, value: u64) -> Result<(), ServiceError> {
        ServiceHandle::put(self, key, value).map(|_| ())
    }

    fn scan(&self, lo: u64, hi: u64) -> Result<usize, ServiceError> {
        Ok(ServiceHandle::scan(self, lo, hi)?.entries().len())
    }

    /// Maps the service's error vocabulary onto the closed loop's coarse
    /// classes, so a soak under transient faults tallies blips instead of
    /// aborting on the first one.
    fn classify(&self, error: &ServiceError) -> workload::ErrorClass {
        match error {
            ServiceError::Timeout => workload::ErrorClass::Timeout,
            ServiceError::Overloaded => workload::ErrorClass::Overloaded,
            e if e.is_retryable() => workload::ErrorClass::Retryable,
            _ => workload::ErrorClass::Fatal,
        }
    }
}

/// Aggregated service accounting: request counts, batching behaviour, and the
/// three latency histograms (end-to-end, queue wait, batch service time), all
/// in microseconds.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Gets admitted.
    pub gets: u64,
    /// Puts admitted.
    pub puts: u64,
    /// Scans admitted.
    pub scans: u64,
    /// Coalesced batches flushed to the engine (reads and writes; scans are
    /// uncoalesced and not counted).
    pub batches_formed: u64,
    /// Requests those batches carried; `batched_requests / batches_formed` is
    /// the front end's average batch occupancy and should match the engine's
    /// own [`EngineStats::avg_batch_occupancy`](engine::EngineStats::avg_batch_occupancy)
    /// over the same window.
    pub batched_requests: u64,
    /// Batches flushed because they reached `max_batch_size`.
    pub size_triggered_flushes: u64,
    /// Batches flushed because their oldest request exhausted
    /// `max_batch_delay_us`.
    pub budget_expired_flushes: u64,
    /// Batches flushed by shutdown's drain.
    pub drain_flushes: u64,
    /// Engine calls that failed (each fails every request of its batch).
    pub errors: u64,
    /// Requests whose deadline expired before the reply arrived (each also
    /// surfaced to its client as [`ServiceError::Timeout`]).
    pub timeouts: u64,
    /// Requests shed at admission because
    /// [`engine::EngineConfig::admission_queue_limit`] requests were already
    /// admitted and unanswered.
    pub sheds: u64,
    /// End-to-end latency per request: admission → ack.
    pub e2e: HistogramSnapshot,
    /// Queue wait per request: admission → its batch starts executing.
    pub queue_wait: HistogramSnapshot,
    /// Service time per request: duration of the engine call that carried it
    /// (recorded once per request, so occupancy weights batches naturally).
    pub batch_service: HistogramSnapshot,
}

impl ServiceStats {
    /// Total requests admitted.
    pub fn total_requests(&self) -> u64 {
        self.gets + self.puts + self.scans
    }

    /// Average requests per coalesced batch (0.0 before the first flush).
    pub fn avg_batch_occupancy(&self) -> f64 {
        if self.batches_formed == 0 {
            return 0.0;
        }
        self.batched_requests as f64 / self.batches_formed as f64
    }
}
