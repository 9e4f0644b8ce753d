//! The service itself: admission control, per-shard batch builders, and
//! per-request accounting — all of it on the callers' threads. The service
//! owns no thread: whoever opens or fills a batch executes it.
//!
//! ## Request lifecycle
//!
//! Admission is **work-conserving**: nobody sleeps waiting for company. A
//! request that finds its slot idle runs at once; a batch forms only *while*
//! the batch ahead of it in the slot executes — classic group commit — and is
//! started by the thread that finishes that one.
//!
//! ```text
//! client A (slot idle)            client B (A's batch running)   client C        engine (no thread:
//! ────────────────────            ────────────────────────────   ────────        on the taker's)
//! handle.get(k1)
//!   opens the (shard, gets)
//!   builder, yields once, takes
//!   it (idle) ──────────────────────────────────────────────────────────────────▶ multi_search([k1])
//!        │                        handle.get(k2)
//!        │                          opens the next builder,
//!        │                          leads it, waits on its       handle.get(k3)
//!        │                          reply slot until the batch     joins B's builder,
//!        │                          ahead says go                  waits on its reply slot
//!        │ finishes: sets B's slot "go"  │
//!        │ answers its own slot          │ takes the builder (hand-over) ───────▶ multi_search([k2, k3])
//!        ▼                               │ answers C's slot, then its own│
//!   Response                             ▼                               ▼
//!                                   Response                        Response
//!
//! handle.put(k, v)   same, per (shard, puts) builder ──────────────────────────▶ insert_batch
//!                                                                                (the shard's WAL forced,
//!                                                                                 THEN every ack)
//! handle.scan(lo, hi)   no coalescing, runs on its caller ─────────────────────▶ range_search
//! ```
//!
//! The engine column is not a thread. Every batch is binned onto one shard,
//! and the engine runs every call on its caller: the client that takes a
//! builder does the tree work and the WAL force itself, and so does a client
//! whose scan (or whose batch, after a rebalance split it) spans shards.
//!
//! * Gets destined for the same shard coalesce into one engine
//!   [`multi_search`](ShardedPioEngine::multi_search) — the MPSearch path, so
//!   independent clients' point reads share one psync stream.
//! * Puts coalesce into one [`insert_batch`](ShardedPioEngine::insert_batch);
//!   the batch is the *group commit*: one forced commit covers every client in
//!   the batch — a local bracket in the shard's own WAL, since the batch was
//!   binned onto one shard (a full cross-shard flush epoch only if a rebalance
//!   moved a boundary under it) — and no put is acked before that call returns.
//! * A builder leaves its slot exactly once, taken under the admission lock by
//!   the thread that then runs it: the request that fills it to
//!   `max_batch_size` (**size**); the request that opened it, at once, when no
//!   batch of the slot is executing (**idle** — after one `yield_now`, so
//!   clients ready to submit join first); its leader when the thread that
//!   finishes the batch ahead says go (**hand-over**), or when its
//!   `request_deadline_ms` runs out first (**deadline** — a leader cannot
//!   abandon its followers, so it runs the batch instead of timing out); or
//!   [`EngineService::shutdown`] (**drain**). A leader names the builder it
//!   opened by a generation number, so it never takes a successor in the same
//!   slot, and a go-ahead that arrives after the builder was taken is ignored.
//!   The go-ahead always comes: the thread that runs a batch finishes it
//!   whatever the engine call did (error or panic), and a builder taken by
//!   size or drain answers its leader. The request deadline is the only timed
//!   wait; without one, nothing in the service sleeps or sets a timer.
//! * Scans bypass the builders: they are not coalescible point work.
//! * Answers and go-aheads are handed over in **reply slots**, one per client
//!   thread (a blocking client has one request in flight): a mutex-guarded
//!   state and a condition variable that the request waits on. Each request
//!   on the thread takes the slot's next sequence number, and a signal tagged
//!   with an earlier one — the late answer to a request that timed out — is
//!   dropped. A finished batch leaves its emptied vectors in its slot for the
//!   next builder there, so in steady state a request allocates nothing of
//!   the service's own.
//!
//! Locking: the admission lock guards the builders, the per-slot count of
//! running batches and the emptied builders kept for reuse, and is never held
//! across an engine call. A reply slot's lock is taken after the admission
//! lock (a go-ahead is sent under it) or alone, and never across an engine
//! call either. Beside them there is only the shutdown barrier `in_flight`: a
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
//! shards when it executes; no request errors or stalls, and the batch's group
//! commit — then a flush epoch — still covers all of it.
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
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

type Reply = Result<Response, ServiceError>;

/// What a request's reply slot hands over.
enum Signal {
    /// The request's answer, from the thread that ran its batch.
    Answer(Reply),
    /// To a leader waiting behind a running batch: the slot is idle, run your
    /// builder. Stale — and skipped — if the builder has been taken meanwhile.
    GoAhead,
}

/// Where the thread that runs a batch hands a request its answer (or its
/// leader the go-ahead). A blocking client has at most one request in
/// flight, so each client thread keeps one slot for all of its requests
/// ([`REPLY`]): a request costs no allocation to be answered.
#[derive(Default)]
struct ReplySlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Default)]
struct SlotState {
    /// The request the slot now serves. A signal tagged with an earlier one
    /// — the late answer to a request that timed out — is dropped, so it
    /// never reaches the thread's next request.
    seq: u64,
    go_ahead: bool,
    answer: Option<Reply>,
}

thread_local! {
    /// The calling thread's reply slot.
    static REPLY: Arc<ReplySlot> = Arc::default();
}

impl ReplySlot {
    fn state(&self) -> std::sync::MutexGuard<'_, SlotState> {
        self.state.lock().expect("reply slot poisoned")
    }

    /// Starts the slot's next request: forgets whatever the previous one left
    /// behind and returns the new request's sequence number.
    fn open(&self) -> u64 {
        let mut state = self.state();
        state.seq += 1;
        state.go_ahead = false;
        state.answer = None;
        state.seq
    }

    /// Hands `signal` to request `seq`, unless the slot has moved on.
    fn signal(&self, seq: u64, signal: Signal) {
        let mut state = self.state();
        if state.seq != seq {
            return;
        }
        match signal {
            Signal::Answer(answer) => state.answer = Some(answer),
            Signal::GoAhead => state.go_ahead = true,
        }
        drop(state);
        self.ready.notify_one();
    }

    /// Waits for the open request's answer — or, if `heed_go_ahead`, for a
    /// go-ahead — no later than `deadline`, which `None` leaves untimed. An
    /// answer wins over a go-ahead that came with it. `None` when the deadline
    /// passed first.
    fn wait(&self, deadline: Option<Instant>, heed_go_ahead: bool) -> Option<Signal> {
        let waiting = |state: &mut SlotState| state.answer.is_none() && !(heed_go_ahead && state.go_ahead);
        let state = self.state();
        let mut state = match deadline {
            None => self.ready.wait_while(state, waiting).expect("reply slot poisoned"),
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                let (state, _) = self
                    .ready
                    .wait_timeout_while(state, left, waiting)
                    .expect("reply slot poisoned");
                state
            }
        };
        if let Some(answer) = state.answer.take() {
            return Some(Signal::Answer(answer));
        }
        (heed_go_ahead && std::mem::take(&mut state.go_ahead)).then_some(Signal::GoAhead)
    }
}

/// One admitted, not-yet-answered point request: its reply slot, and which of
/// the slot's requests it is.
struct Waiter {
    enqueued: Instant,
    reply: Arc<ReplySlot>,
    seq: u64,
}

impl Waiter {
    fn signal(&self, signal: Signal) {
        self.reply.signal(self.seq, signal);
    }
}

/// What made a batch leave its builder.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Trigger {
    /// The builder reached `max_batch_size`.
    Size,
    /// The request that opened the builder found its slot idle and took it at once.
    Idle,
    /// The batch running ahead of the builder finished and handed its leader the slot.
    HandOver,
    /// The request that opened the builder reached its request deadline
    /// waiting behind a running batch.
    Deadline,
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

/// State behind the admission lock: the open builders, what is running, and
/// the closed flag.
struct Admission {
    /// Slot `2 * shard` holds the shard's gets, `2 * shard + 1` its puts.
    builders: Vec<Option<Builder>>,
    /// Per slot, the batches taken from it that have not finished executing.
    running: Vec<usize>,
    /// Per slot, a finished batch emptied for the slot's next builder, so
    /// that a builder opens without allocating.
    spares: Vec<Option<Builder>>,
    /// Generation of the most recently opened builder.
    generation: u64,
    closed: bool,
}

impl Admission {
    /// Takes the builder out of `slot`, which now has one more batch running.
    fn take(&mut self, slot: usize) -> Option<Builder> {
        let builder = self.builders[slot].take()?;
        self.running[slot] += 1;
        Some(builder)
    }
}

/// What admission made of a point request's thread.
enum Role {
    /// It filled the builder and took it: run the batch now.
    Run(usize, Builder),
    /// It opened the builder and will run it, unless another thread takes it
    /// first: at once if the slot is idle, else when the batch running ahead
    /// (`busy`) finishes or the request deadline is up.
    Lead { slot: usize, generation: u64, busy: bool },
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
    idle_flushes: AtomicU64,
    handover_flushes: AtomicU64,
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
            Request::Get { key } => (key, None),
            Request::Put { key, value } => (key, Some(value)),
            Request::Scan { lo, hi } => return self.scan(lo, hi, enqueued),
        };
        let reply = REPLY.with(Arc::clone);
        let waiter = Waiter {
            enqueued,
            seq: reply.open(),
            reply: Arc::clone(&reply),
        };
        let (slot, batch, trigger) = match self.admit(key, value, waiter)? {
            Role::Run(slot, batch) => (slot, batch, Trigger::Size),
            Role::Lead { slot, generation, busy } => {
                let trigger = if busy {
                    match self.wait_behind(&reply, enqueued) {
                        Ok(trigger) => trigger,
                        Err(answer) => return answer,
                    }
                } else {
                    // Nothing to wait for. One yield lets clients that are
                    // ready to submit join first; nobody sleeps.
                    std::thread::yield_now();
                    Trigger::Idle
                };
                match self.take(slot, generation) {
                    Some(batch) => (slot, batch, trigger),
                    // A size trigger or the drain took the builder and runs it.
                    None => return self.await_reply(&reply, enqueued),
                }
            }
            Role::Follow => return self.await_reply(&reply, enqueued),
        };
        self.run_batch(slot, batch, trigger);
        // The answer is in the slot: a deadline long past takes it without
        // waiting.
        match reply.wait(Some(enqueued), false) {
            Some(Signal::Answer(answer)) => answer,
            _ => Err(ServiceError::Lost),
        }
    }

    /// When a request admitted at `enqueued` stops waiting: its deadline, or
    /// never.
    fn deadline(&self, enqueued: Instant) -> Option<Instant> {
        self.request_deadline.map(|deadline| enqueued + deadline)
    }

    /// A leader's wait behind the batch running in its slot — the builder that
    /// fills meanwhile is the group commit. Over when that batch's thread says
    /// go, or at the request deadline (a leader cannot abandon its followers,
    /// so the deadline cuts the wait instead of timing out). `Err` carries the
    /// leader's answer: another thread took the builder and ran it.
    fn wait_behind(&self, reply: &ReplySlot, enqueued: Instant) -> Result<Trigger, Reply> {
        match reply.wait(self.deadline(enqueued), true) {
            Some(Signal::GoAhead) => Ok(Trigger::HandOver),
            None => Ok(Trigger::Deadline),
            Some(Signal::Answer(answer)) => Err(answer),
        }
    }

    /// Waits for the thread whose batch carries this request; the request's
    /// deadline bounds the wait, and a go-ahead is stale by now (the builder it
    /// was sent for has been taken).
    fn await_reply(&self, reply: &ReplySlot, enqueued: Instant) -> Reply {
        match reply.wait(self.deadline(enqueued), false) {
            Some(Signal::Answer(answer)) => answer,
            // The batch will still execute, and its answer will find the slot
            // moved on — the *outcome* is unknown, but the client's wait is
            // cleanly over and the request is safe to resubmit.
            _ => {
                self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::Timeout)
            }
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
        // Counted under the lock: a request the stats show is in its builder.
        let admitted = if value.is_some() {
            &self.counters.puts
        } else {
            &self.counters.gets
        };
        admitted.fetch_add(1, Ordering::Relaxed);
        let busy = admission.running[slot] > 0;
        let Admission {
            builders,
            spares,
            generation,
            ..
        } = &mut *admission;
        let opened = builders[slot].is_none();
        let builder = builders[slot].get_or_insert_with(|| {
            *generation += 1;
            let mut builder = spares[slot].take().unwrap_or_else(|| Builder {
                work: match value {
                    None => Work::Reads(Vec::new()),
                    Some(_) => Work::Writes(Vec::new()),
                },
                waiters: Vec::new(),
                generation: 0,
            });
            builder.generation = *generation;
            builder
        });
        match (&mut builder.work, value) {
            (Work::Reads(keys), None) => keys.push(key),
            (Work::Writes(entries), Some(value)) => entries.push((key, value)),
            _ => unreachable!("a slot's parity fixes the kind of its builders"),
        }
        builder.waiters.push(waiter);
        let generation = builder.generation;
        Ok(if builder.waiters.len() >= self.max_batch_size {
            Role::Run(slot, admission.take(slot).expect("builder just filled"))
        } else if opened {
            Role::Lead { slot, generation, busy }
        } else {
            Role::Follow
        })
    }

    /// Takes the builder in `slot` if it is still the one `generation` names.
    fn take(&self, slot: usize, generation: u64) -> Option<Builder> {
        let mut admission = self.admission.lock().expect("admission poisoned");
        let ours = admission.builders[slot].as_ref()?.generation == generation;
        ours.then(|| admission.take(slot)).flatten()
    }

    /// A batch taken from `slot` has finished. If that leaves the slot idle
    /// with a builder open, its leader — the first waiter — is told to run it.
    fn finish(&self, slot: usize) {
        let mut admission = self.admission.lock().expect("admission poisoned");
        admission.running[slot] -= 1;
        if let (0, Some(next)) = (admission.running[slot], &admission.builders[slot]) {
            next.waiters[0].signal(Signal::GoAhead);
        }
    }

    /// Runs a taken batch's engine call on the calling thread and answers every
    /// waiter with its result and timing. Puts are acked only after
    /// `insert_batch` returned, i.e. after the covering commit was forced —
    /// the group-commit durability contract. The emptied batch goes back to
    /// its slot, for the next builder there to fill.
    fn run_batch(&self, slot: usize, mut batch: Builder, trigger: Trigger) {
        let flushes = match trigger {
            Trigger::Size => &self.counters.size_triggered_flushes,
            Trigger::Idle => &self.counters.idle_flushes,
            Trigger::HandOver => &self.counters.handover_flushes,
            Trigger::Deadline => &self.counters.budget_expired_flushes,
            Trigger::Drain => &self.counters.drain_flushes,
        };
        flushes.fetch_add(1, Ordering::Relaxed);
        self.counters.batches_formed.fetch_add(1, Ordering::Relaxed);
        self.counters
            .batched_requests
            .fetch_add(batch.waiters.len() as u64, Ordering::Relaxed);

        // A get batch returns one value per key; a put batch, nothing.
        let (begun, service_us, outcome) = self.engine_call(|engine| match &batch.work {
            Work::Reads(keys) => engine.multi_search(keys).map(Some),
            Work::Writes(entries) => engine.insert_batch(entries).map(|()| None),
        });
        // Before the answers (measured: 16 µs against 18 µs median call with
        // two clients): a client that has its answer may already be back, and
        // should find the slot idle rather than wait to be called.
        self.finish(slot);
        let mut values = match &outcome {
            Ok(Some(values)) => values.iter(),
            _ => [].iter(),
        };
        for waiter in batch.waiters.drain(..) {
            let body = match &outcome {
                Err(err) => Err(err.clone()),
                Ok(None) => Ok(ResponseBody::Done),
                // A result short of the batch loses the requests past its
                // end: each is answered, none is left waiting.
                Ok(Some(_)) => values
                    .next()
                    .map(|&value| ResponseBody::Value(value))
                    .ok_or(ServiceError::Lost),
            };
            let answer = body.map(|body| Response {
                body,
                timing: self.record(waiter.enqueued, begun, service_us),
            });
            waiter.signal(Signal::Answer(answer));
        }
        match &mut batch.work {
            Work::Reads(keys) => keys.clear(),
            Work::Writes(entries) => entries.clear(),
        }
        let mut admission = self.admission.lock().expect("admission poisoned");
        admission.spares[slot].get_or_insert(batch);
    }

    /// Runs a scan on its caller, unless the service is closed.
    fn scan(&self, lo: Key, hi: Key, enqueued: Instant) -> Reply {
        {
            let admission = self.admission.lock().expect("admission poisoned");
            if admission.closed {
                return Err(ServiceError::Closed);
            }
            // Counted under the lock, after the check, like gets and puts.
            self.counters.scans.fetch_add(1, Ordering::Relaxed);
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
            idle_flushes: self.counters.idle_flushes.load(Ordering::Relaxed),
            handover_flushes: self.counters.handover_flushes.load(Ordering::Relaxed),
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
    /// (`max_batch_size`, `request_deadline_ms`, `admission_queue_limit`) from
    /// the engine's [`EngineConfig`](engine::EngineConfig).
    pub fn start(engine: Arc<ShardedPioEngine>) -> Self {
        let config = engine.config();
        let shared = Arc::new(ServiceShared {
            max_batch_size: config.max_batch_size,
            request_deadline: config.request_deadline_ms.map(Duration::from_millis),
            queue_limit: config.admission_queue_limit,
            unanswered: AtomicUsize::new(0),
            admission: Mutex::new(Admission {
                builders: (0..2 * engine.shard_count()).map(|_| None).collect(),
                running: vec![0; 2 * engine.shard_count()],
                spares: (0..2 * engine.shard_count()).map(|_| None).collect(),
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
        let drained: Vec<(usize, Builder)> = {
            let mut admission = self.shared.admission.lock().expect("admission poisoned");
            admission.closed = true;
            (0..admission.builders.len())
                .filter_map(|slot| Some((slot, admission.take(slot)?)))
                .collect()
        };
        for (slot, batch) in drained {
            self.shared.run_batch(slot, batch, Trigger::Drain);
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
    /// batch's commit was forced before the response was sent).
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
    /// Batches run at once by the request that opened them, because no batch
    /// of their slot was executing — nothing to wait for.
    pub idle_flushes: u64,
    /// Batches that formed while the batch ahead of them in their slot
    /// executed, and were started by the thread that finished it: the group
    /// commit.
    pub handover_flushes: u64,
    /// Batches run by the request that opened them because its request
    /// deadline ([`engine::EngineConfig::request_deadline_ms`]) ran out while
    /// it waited behind a running batch — the service's only timed wait, so
    /// always 0 without a deadline.
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

/// The admission state machine, driven step by step on one thread: no test
/// here sleeps or sets a request deadline, so no path they take has a timer.
#[cfg(test)]
mod tests {
    use super::*;
    use engine::{EngineBackends, EngineBuilder, EngineConfig};
    use pio::{Completion, IoError, IoQueue, IoStats, ReadRequest, SimPsyncIo, Ticket, WriteRequest};
    use pio_btree::PioConfig;
    use ssd_sim::DeviceProfile;
    use std::sync::atomic::AtomicU8;

    /// A WAL backend whose writes pass (0), fail (1) or panic (2).
    struct Boom {
        inner: SimPsyncIo,
        mode: Arc<AtomicU8>,
    }

    impl IoQueue for Boom {
        fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
            self.inner.submit_read(reqs)
        }
        fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
            match self.mode.load(Ordering::SeqCst) {
                0 => self.inner.submit_write(reqs),
                1 => Err(IoError::WorkerFailed("boom".into())),
                _ => panic!("boom"),
            }
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
    }

    /// A one-shard WAL engine (so every put shares slot 1) behind a service,
    /// plus the switch of its shard WAL's [`Boom`].
    fn start(max_batch_size: usize) -> (EngineService, Arc<AtomicU8>) {
        let config = EngineConfig::builder()
            .shards(1)
            .profile(DeviceProfile::P300)
            .shard_capacity_bytes(1 << 26)
            .max_batch_size(max_batch_size)
            .base(PioConfig::builder().page_size(2048).wal(true).build())
            .build();
        let sim = |bytes| SimPsyncIo::with_profile(DeviceProfile::P300, bytes);
        let mode = Arc::new(AtomicU8::new(0));
        let wal = Boom {
            inner: sim(config.wal_capacity_bytes),
            mode: Arc::clone(&mode),
        };
        let backends = EngineBackends {
            shard_stores: vec![Arc::new(sim(config.shard_capacity_bytes))],
            shard_wals: vec![Arc::new(wal)],
            engine_wal: None,
        };
        let engine = EngineBuilder::new(config).topology(backends).build().unwrap();
        (EngineService::start(Arc::new(engine)), mode)
    }

    const PUTS: usize = 1;

    /// Opens the next request on `reply` and admits it as a put of `key`, as
    /// `serve` would; returns its role.
    fn admit_on(shared: &ServiceShared, key: Key, reply: &Arc<ReplySlot>) -> Role {
        let waiter = Waiter {
            enqueued: Instant::now(),
            seq: reply.open(),
            reply: Arc::clone(reply),
        };
        shared.admit(key, Some(key), waiter).unwrap()
    }

    /// Admits a put of `key` with a reply slot of its own, as if from a thread
    /// of its own; returns its role and reply slot.
    fn admit(shared: &ServiceShared, key: Key) -> (Role, Arc<ReplySlot>) {
        let reply = Arc::default();
        (admit_on(shared, key, &reply), reply)
    }

    /// The leader's side of `admit`.
    fn lead(shared: &ServiceShared, key: Key, expect_busy: bool) -> (u64, Arc<ReplySlot>) {
        match admit(shared, key) {
            (Role::Lead { slot, generation, busy }, reply) => {
                assert_eq!((slot, busy), (PUTS, expect_busy));
                (generation, reply)
            }
            _ => panic!("put {key} must open a builder and lead it"),
        }
    }

    /// What the request's thread finds in its slot without waiting.
    fn try_recv(reply: &ReplySlot) -> Option<Signal> {
        reply.wait(Some(Instant::now()), true)
    }

    fn running(shared: &ServiceShared) -> Vec<usize> {
        shared.admission.lock().unwrap().running.clone()
    }

    fn answered(reply: &ReplySlot) -> bool {
        matches!(try_recv(reply), Some(Signal::Answer(Ok(_))))
    }

    #[test]
    fn a_request_on_an_idle_slot_runs_now() {
        let (service, _) = start(64);
        let shared = &service.shared;
        let (generation, reply) = lead(shared, 1, false);
        let batch = shared.take(PUTS, generation).expect("nobody else can have taken it");
        assert_eq!(running(shared), [0, 1]);
        shared.run_batch(PUTS, batch, Trigger::Idle);
        assert_eq!(running(shared), [0, 0]);
        assert!(answered(&reply));
        // And through the front door.
        let handle = service.handle();
        handle.put(2, 20).unwrap();
        assert_eq!(handle.get(2).unwrap().value(), Some(20));
        let stats = service.shutdown();
        assert_eq!((stats.idle_flushes, stats.batches_formed), (3, 3));
    }

    #[test]
    fn a_request_behind_a_running_batch_leads_and_is_called_by_its_finisher() {
        let (service, _) = start(64);
        let shared = &service.shared;
        let (first, first_reply) = lead(shared, 1, false);
        let ahead = shared.take(PUTS, first).unwrap();
        // While that batch "executes": the next put opens a builder and leads
        // it, the one after joins — the group commit forming.
        let (second, leader_reply) = lead(shared, 2, true);
        let (role, follower_reply) = admit(shared, 3);
        assert!(matches!(role, Role::Follow));
        assert!(try_recv(&leader_reply).is_none());

        shared.run_batch(PUTS, ahead, Trigger::Idle);
        assert!(answered(&first_reply));
        // Exactly one go-ahead, to the open builder's leader.
        assert!(matches!(try_recv(&leader_reply), Some(Signal::GoAhead)));
        assert!(try_recv(&leader_reply).is_none());
        assert!(try_recv(&follower_reply).is_none());

        let batch = shared.take(PUTS, second).expect("the called leader finds its builder");
        assert_eq!(batch.waiters.len(), 2);
        shared.run_batch(PUTS, batch, Trigger::HandOver);
        assert!(answered(&leader_reply) && answered(&follower_reply));
        assert_eq!(running(shared), [0, 0]);
        let stats = service.shutdown();
        assert_eq!(
            (stats.idle_flushes, stats.handover_flushes, stats.drain_flushes),
            (1, 1, 0)
        );
    }

    #[test]
    fn a_stale_go_ahead_is_ignored() {
        let (service, _) = start(2);
        let shared = &service.shared;
        let (first, _first_reply) = lead(shared, 1, false);
        let ahead = shared.take(PUTS, first).unwrap();
        let (second, leader_reply) = lead(shared, 2, true);
        shared.run_batch(PUTS, ahead, Trigger::Idle);
        // The go-ahead is on its way — and a size trigger gets there first.
        let (Role::Run(slot, full), filler_reply) = admit(shared, 3) else {
            panic!("the second request of two fills the builder");
        };
        assert_eq!(shared.wait_behind(&leader_reply, Instant::now()), Ok(Trigger::HandOver));
        assert!(
            shared.take(PUTS, second).is_none(),
            "the builder left its slot once, by size"
        );
        shared.run_batch(slot, full, Trigger::Size);
        assert!(shared.await_reply(&leader_reply, Instant::now()).is_ok());
        assert!(answered(&filler_reply));

        // The other order: the leader gives up waiting (as at its deadline)
        // just as the go-ahead is sent; its answer comes after the stale signal.
        let (third, _third_reply) = lead(shared, 4, false);
        let ahead = shared.take(PUTS, third).unwrap();
        let (fourth, late_reply) = lead(shared, 5, true);
        shared.run_batch(PUTS, ahead, Trigger::Idle);
        let batch = shared.take(PUTS, fourth).unwrap();
        shared.run_batch(PUTS, batch, Trigger::Deadline);
        assert!(shared.await_reply(&late_reply, Instant::now()).is_ok());
        assert_eq!(running(shared), [0, 0]);
    }

    #[test]
    fn running_counts_return_to_zero_after_error_panic_and_drain() {
        let (service, mode) = start(64);
        let handle = service.handle();
        mode.store(1, Ordering::SeqCst);
        assert!(matches!(handle.put(1, 10), Err(ServiceError::Engine { .. })));
        assert_eq!(running(&service.shared), [0, 0]);
        mode.store(2, Ordering::SeqCst);
        assert!(matches!(handle.put(2, 20), Err(ServiceError::Lost)));
        assert_eq!(running(&service.shared), [0, 0]);
        assert_eq!(service.stats().errors, 2);

        // Drain, on a healthy engine: a parked builder is run by `shutdown`.
        let (service, _) = start(64);
        let shared = Arc::clone(&service.shared);
        let (_, parked_reply) = lead(&shared, 3, false);
        let stats = service.shutdown();
        assert!(answered(&parked_reply));
        assert_eq!(running(&shared), [0, 0]);
        assert_eq!(stats.drain_flushes, 1);
    }

    #[test]
    fn a_late_signal_never_reaches_the_threads_next_request() {
        let (service, _) = start(64);
        let shared = &service.shared;
        let (first, _) = lead(shared, 1, false);
        let ahead = shared.take(PUTS, first).unwrap();
        // Request A leads a builder behind the running batch; then its thread
        // moves on to request B, as after A's deadline.
        let reply = Arc::default();
        let Role::Lead { generation, busy, .. } = admit_on(shared, 2, &reply) else {
            panic!("put 2 must open a builder and lead it");
        };
        assert!(busy);
        let b = reply.open();
        shared.run_batch(PUTS, ahead, Trigger::Idle);
        assert!(try_recv(&reply).is_none(), "A's go-ahead must not reach B");
        let batch = shared.take(PUTS, generation).unwrap();
        shared.run_batch(PUTS, batch, Trigger::Deadline);
        assert!(try_recv(&reply).is_none(), "A's answer must not reach B");
        assert_eq!(reply.state().seq, b);
        // B, admitted on the same slot, gets its own answer.
        let Role::Lead { generation, busy, .. } = admit_on(shared, 3, &reply) else {
            panic!("put 3 must open a builder and lead it");
        };
        assert!(!busy);
        let batch = shared.take(PUTS, generation).unwrap();
        shared.run_batch(PUTS, batch, Trigger::Idle);
        assert!(answered(&reply));
        assert_eq!(running(shared), [0, 0]);
    }
}
