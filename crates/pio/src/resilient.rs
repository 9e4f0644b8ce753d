//! Bounded retry with deterministic exponential backoff: [`ResilientIo`].
//!
//! A transient device error — an interrupted syscall, a momentarily saturated
//! backend, an injected fault from [`crate::fault`] — should cost a retry, not
//! poison a whole batch and the engine call above it. [`ResilientIo`] wraps any
//! [`IoQueue`] and keeps every submitted batch — a shared image by another
//! reference to it, borrowed bytes by a copy, which goes back to the
//! completing thread's spare images ([`crate::recycle_image`]) once the batch
//! is done — so a failure that
//! [`IoError::is_retryable`] classifies as transient is resubmitted up to
//! [`RetryPolicy::retry_limit`] times with exponential backoff, whether the
//! failure surfaces at submission or at completion. Non-retryable errors pass
//! through untouched on the first occurrence.
//!
//! ## Deterministic backoff
//!
//! The simulated backend completes tickets on a virtual device timeline —
//! `wait` never blocks in real time — so sleeping between retries would add
//! wall-clock nondeterminism without modelling anything. Instead the backoff is
//! **accounted, not slept**: each retry accrues `backoff_base_us · 2^k` µs
//! against the ticket, the accrued total is charged into the completion's
//! `elapsed_us` (so latency accounting sees the delay in sim-clock time), and
//! the per-ticket budget [`RetryPolicy::deadline_us`] bounds how much backoff a
//! ticket may accrue before the wrapper gives up. Tests with a seeded fault
//! plan therefore stay bit-for-bit deterministic.
//!
//! ## Giving up
//!
//! When the retry budget or the deadline runs out, the wrapper returns an
//! `ErrorKind::TimedOut` OS error naming the last underlying failure. That
//! error is itself retryable by classification — deliberately: the *operation*
//! may well succeed later, it is this bounded attempt that ran out of budget,
//! and upper layers (the service front end) decide whether to retry the whole
//! request. Retries and give-ups are counted into [`IoStats::retries`] /
//! [`IoStats::give_ups`].

use crate::error::{IoError, IoResult};
use crate::queue::{recycle_image, Completion, IoQueue, Ticket, TryComplete};
use crate::request::{ReadRequest, WriteRequest};
use crate::stats::IoStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How [`ResilientIo`] retries: attempt count, backoff shape and per-ticket
/// deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Resubmissions allowed per logical batch after the initial attempt
    /// (0 turns every retryable failure into an immediate give-up).
    pub retry_limit: u32,
    /// Backoff before the first retry, in µs; each further retry doubles it.
    pub backoff_base_us: u64,
    /// Per-ticket budget, in µs: once the accrued backoff would exceed this,
    /// the wrapper gives up even if `retry_limit` is not yet exhausted.
    pub deadline_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            retry_limit: 3,
            backoff_base_us: 100,
            deadline_us: 50_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `k` (0-based): `backoff_base_us · 2^k`,
    /// saturating so a large limit cannot overflow.
    pub fn backoff_us(&self, k: u32) -> u64 {
        self.backoff_base_us.saturating_mul(1u64 << k.min(20))
    }
}

/// A submitted batch, kept so it can be resubmitted verbatim. A write keeps
/// each request's bytes as a shared image ([`WriteRequest::to_image`]): what
/// a caller later does to its own buffer cannot change what a retry writes.
enum OwnedBatch {
    Read(Vec<ReadRequest>),
    Write(Vec<(u64, Arc<[u8]>)>),
}

impl OwnedBatch {
    fn submit(&self, inner: &dyn IoQueue) -> IoResult<Ticket> {
        match self {
            OwnedBatch::Read(reqs) => inner.submit_read(reqs),
            OwnedBatch::Write(reqs) => {
                let shared: Vec<WriteRequest<'_>> = reqs
                    .iter()
                    .map(|(offset, image)| WriteRequest::shared(*offset, image))
                    .collect();
                inner.submit_write(&shared)
            }
        }
    }

    /// Hands a completed write's images back to this thread's spare list
    /// ([`recycle_image`]); the copies of borrowed bytes are the ones nobody
    /// else holds.
    fn recycle(self) {
        if let OwnedBatch::Write(reqs) = self {
            reqs.into_iter().for_each(|(_, image)| recycle_image(image));
        }
    }
}

/// One logical batch in flight: the live inner ticket plus what it would take
/// to try again.
struct Flight {
    inner: Ticket,
    batch: OwnedBatch,
    retries_done: u32,
    backoff_accrued_us: u64,
}

/// An [`IoQueue`] wrapper adding bounded retry with deterministic exponential
/// backoff and a per-ticket deadline (see the [module docs](self)).
pub struct ResilientIo {
    inner: Arc<dyn IoQueue>,
    policy: RetryPolicy,
    next: AtomicU64,
    flights: Mutex<HashMap<u64, Flight>>,
    retries: AtomicU64,
    give_ups: AtomicU64,
}

impl ResilientIo {
    /// Wraps `inner` under `policy`.
    pub fn new(inner: Arc<dyn IoQueue>, policy: RetryPolicy) -> Self {
        Self {
            inner,
            policy,
            next: AtomicU64::new(0),
            flights: Mutex::new(HashMap::new()),
            retries: AtomicU64::new(0),
            give_ups: AtomicU64::new(0),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// The wrapped queue.
    pub fn inner(&self) -> &Arc<dyn IoQueue> {
        &self.inner
    }

    fn gave_up(flight: &Flight, cause: &IoError, why: &str) -> IoError {
        IoError::Os(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!(
                "gave up after {} retries ({why} exhausted, {} µs backoff accrued); last error: {cause}",
                flight.retries_done, flight.backoff_accrued_us
            ),
        ))
    }

    /// Decides whether `flight` may try again after failing with `e`: either
    /// accrues the next backoff (counting a retry) and returns `Ok`, or
    /// returns the error to propagate.
    fn admit_retry(&self, flight: &mut Flight, e: IoError) -> IoResult<()> {
        if !e.is_retryable() {
            return Err(e);
        }
        if flight.retries_done >= self.policy.retry_limit {
            self.give_ups.fetch_add(1, Ordering::Relaxed);
            return Err(Self::gave_up(flight, &e, "retry limit"));
        }
        let backoff = self.policy.backoff_us(flight.retries_done);
        if flight.backoff_accrued_us.saturating_add(backoff) > self.policy.deadline_us {
            self.give_ups.fetch_add(1, Ordering::Relaxed);
            return Err(Self::gave_up(flight, &e, "deadline"));
        }
        flight.backoff_accrued_us += backoff;
        flight.retries_done += 1;
        self.retries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Submits `flight.batch` until it is accepted or the retry budget runs
    /// out, leaving the live inner ticket in `flight.inner`.
    fn submit_flight(&self, flight: &mut Flight) -> IoResult<()> {
        loop {
            match flight.batch.submit(&*self.inner) {
                Ok(ticket) => {
                    flight.inner = ticket;
                    return Ok(());
                }
                Err(e) => self.admit_retry(flight, e)?,
            }
        }
    }

    fn submit(&self, batch: OwnedBatch) -> IoResult<Ticket> {
        let mut flight = Flight {
            inner: Ticket::empty(),
            batch,
            retries_done: 0,
            backoff_accrued_us: 0,
        };
        self.submit_flight(&mut flight)?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.flights.lock().insert(id, flight);
        Ok(Ticket(id))
    }
}

impl IoQueue for ResilientIo {
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        if reqs.is_empty() {
            // Every backend answers an empty batch with `Ticket::empty()`;
            // keep that contract (nothing to retry either way).
            return self.inner.submit_read(reqs);
        }
        self.submit(OwnedBatch::Read(reqs.to_vec()))
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        if reqs.is_empty() {
            return self.inner.submit_write(reqs);
        }
        self.submit(OwnedBatch::Write(
            reqs.iter().map(|r| (r.offset, r.to_image())).collect(),
        ))
    }

    fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
        if ticket.is_empty_batch() {
            return self.inner.wait(ticket);
        }
        let id = ticket.id();
        let mut flight = self.flights.lock().remove(&id).ok_or(IoError::UnknownTicket(id))?;
        loop {
            let inner_ticket = std::mem::replace(&mut flight.inner, Ticket::empty());
            match self.inner.wait(inner_ticket) {
                Ok(mut completion) => {
                    // Charge the accrued backoff into the ticket's latency so
                    // sim-clock accounting sees the delay the retries cost.
                    completion.stats.elapsed_us += flight.backoff_accrued_us as f64;
                    flight.batch.recycle();
                    return Ok(completion);
                }
                Err(e) => {
                    self.admit_retry(&mut flight, e)?;
                    self.submit_flight(&mut flight)?;
                }
            }
        }
    }

    fn try_complete(&self, ticket: Ticket) -> IoResult<TryComplete> {
        if ticket.is_empty_batch() {
            return self.inner.try_complete(ticket);
        }
        let id = ticket.id();
        let mut flights = self.flights.lock();
        let flight = flights.get_mut(&id).ok_or(IoError::UnknownTicket(id))?;
        let inner_ticket = std::mem::replace(&mut flight.inner, Ticket::empty());
        match self.inner.try_complete(inner_ticket) {
            Ok(TryComplete::Ready(mut completion)) => {
                completion.stats.elapsed_us += flight.backoff_accrued_us as f64;
                let done = flights.remove(&id).expect("looked up above");
                drop(flights);
                done.batch.recycle();
                Ok(TryComplete::Ready(completion))
            }
            Ok(TryComplete::Pending(inner)) => {
                flight.inner = inner;
                Ok(TryComplete::Pending(ticket))
            }
            Err(e) => {
                // Non-blocking path: the resubmitted batch is reported as
                // still pending.
                let outcome = self.admit_retry(flight, e).and_then(|()| self.submit_flight(flight));
                match outcome {
                    Ok(()) => Ok(TryComplete::Pending(ticket)),
                    Err(e) => {
                        flights.remove(&id);
                        Err(e)
                    }
                }
            }
        }
    }

    fn io_stats(&self) -> IoStats {
        let mut stats = self.inner.io_stats();
        stats.retries += self.retries.load(Ordering::Relaxed);
        stats.give_ups += self.give_ups.load(Ordering::Relaxed);
        stats
    }

    fn reset_io_stats(&self) {
        self.inner.reset_io_stats();
        self.retries.store(0, Ordering::Relaxed);
        self.give_ups.store(0, Ordering::Relaxed);
    }

    fn queue_depth_hint(&self) -> Option<usize> {
        self.inner.queue_depth_hint()
    }

    fn reclaim_to(&self, len: u64) -> IoResult<()> {
        self.inner.reclaim_to(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultClock, FaultIo, TransientFaults};
    use crate::{IoQueue, SimPsyncIo};
    use ssd_sim::DeviceProfile;

    fn resilient(policy: RetryPolicy) -> (ResilientIo, Arc<FaultClock>) {
        let clock = FaultClock::new();
        let sim: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 20));
        let faulty: Arc<dyn IoQueue> = Arc::new(FaultIo::new(sim, Arc::clone(&clock)));
        (ResilientIo::new(faulty, policy), clock)
    }

    #[test]
    fn passes_through_when_nothing_fails() {
        let (io, _clock) = resilient(RetryPolicy::default());
        io.write_at(0, b"steady").unwrap();
        assert_eq!(&io.read_at(0, 6).unwrap()[..], b"steady");
        let stats = io.io_stats();
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.give_ups, 0);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
    }

    #[test]
    fn a_completed_write_hands_its_copy_back_as_a_spare() {
        let (io, _clock) = resilient(RetryPolicy::default());
        let base = crate::spare_images();
        let t = io.submit_write(&[WriteRequest::new(0, &[5u8; 512])]).unwrap();
        io.wait(t).unwrap();
        assert_eq!(crate::spare_images(), base + 1, "wait hands the copy back");
        let t = io.submit_write(&[WriteRequest::new(512, &[6u8; 512])]).unwrap();
        assert_eq!(crate::spare_images(), base, "the next copy went into it");
        assert!(io.try_complete(t).unwrap().is_ready());
        assert_eq!(crate::spare_images(), base + 1, "so does try_complete");
        // A shared image its caller still holds is not kept.
        let image: Arc<[u8]> = Arc::from(&[7u8; 512][..]);
        let t = io.submit_write(&[WriteRequest::shared(1024, &image)]).unwrap();
        io.wait(t).unwrap();
        assert_eq!(crate::spare_images(), base + 1);
        assert_eq!(Arc::strong_count(&image), 1);
        let written = io.read_at(0, 1536).unwrap();
        assert!(written[..512].iter().all(|&b| b == 5) && written[512..1024].iter().all(|&b| b == 6));
    }

    #[test]
    fn masks_transient_errors_and_counts_retries() {
        let (io, clock) = resilient(RetryPolicy {
            retry_limit: 8,
            ..RetryPolicy::default()
        });
        io.write_at(0, &[9u8; 4096]).unwrap();
        clock.arm_transient(TransientFaults {
            seed: 11,
            read_error_rate: 0.4,
            write_error_rate: 0.4,
            ..TransientFaults::default()
        });
        for i in 0..50u64 {
            let page = [i as u8; 4096];
            io.write_at(i * 4096 % (1 << 19), &page).unwrap();
            assert_eq!(&io.read_at(i * 4096 % (1 << 19), 4096).unwrap()[..], page);
        }
        let stats = io.io_stats();
        assert!(stats.retries > 0, "a 0.4 error rate over 100 ops must retry");
        assert_eq!(stats.give_ups, 0, "retry limit 8 masks a 0.4 rate");
        assert!(clock.transient_counts().read_errors + clock.transient_counts().write_errors > 0);
    }

    #[test]
    fn gives_up_with_a_timeout_when_the_budget_runs_out() {
        let (io, clock) = resilient(RetryPolicy {
            retry_limit: 3,
            ..RetryPolicy::default()
        });
        clock.arm_transient(TransientFaults {
            seed: 1,
            write_error_rate: 1.0,
            ..TransientFaults::default()
        });
        let err = io.write_at(0, b"doomed").unwrap_err();
        match &err {
            IoError::Os(os) => assert_eq!(os.kind(), std::io::ErrorKind::TimedOut),
            other => panic!("expected TimedOut give-up, got {other}"),
        }
        assert!(err.to_string().contains("gave up after 3 retries"), "{err}");
        assert!(
            err.is_retryable(),
            "a give-up is retryable at a higher layer: the budget ran out, not the device"
        );
        let stats = io.io_stats();
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.give_ups, 1);
    }

    #[test]
    fn deadline_caps_accrued_backoff_before_the_retry_limit() {
        let (io, clock) = resilient(RetryPolicy {
            retry_limit: 100,
            backoff_base_us: 1_000,
            deadline_us: 3_000, // 1000 + 2000 fits; the third retry (4000) does not
        });
        clock.arm_transient(TransientFaults {
            seed: 2,
            write_error_rate: 1.0,
            ..TransientFaults::default()
        });
        let err = io.write_at(0, b"slow").unwrap_err();
        assert!(err.to_string().contains("deadline exhausted"), "{err}");
        assert_eq!(io.io_stats().retries, 2);
        assert_eq!(io.io_stats().give_ups, 1);
    }

    #[test]
    fn accrued_backoff_is_charged_into_completion_latency() {
        let (io, clock) = resilient(RetryPolicy {
            retry_limit: 8,
            backoff_base_us: 500,
            deadline_us: 1_000_000,
        });
        io.write_at(0, &[3u8; 4096]).unwrap();
        // Fail every read submission once or twice, then let it through.
        clock.arm_transient(TransientFaults {
            seed: 5,
            read_error_rate: 0.6,
            ..TransientFaults::default()
        });
        let mut saw_backoff = false;
        for _ in 0..20 {
            let ticket = match io.submit_read(&[ReadRequest::new(0, 4096)]) {
                Ok(t) => t,
                Err(e) => panic!("retry should mask submission errors: {e}"),
            };
            let c = io.wait(ticket).unwrap();
            if c.stats.elapsed_us >= 500.0 {
                saw_backoff = true;
            }
            assert_eq!(&c.buffers[0][..], vec![3u8; 4096]);
        }
        assert!(saw_backoff, "at least one read must have accrued visible backoff");
    }

    #[test]
    fn non_retryable_errors_propagate_unchanged() {
        let (io, _clock) = resilient(RetryPolicy::default());
        let err = io.submit_read(&[ReadRequest::new(u64::MAX - 4096, 4096)]).unwrap_err();
        assert!(matches!(err, IoError::OutOfBounds { .. }), "{err}");
        assert_eq!(io.io_stats().retries, 0);
        assert_eq!(io.io_stats().give_ups, 0);
        let empty = io.submit_read(&[]).unwrap();
        assert!(empty.is_empty_batch(), "empty batches keep the backend contract");
        io.wait(empty).unwrap();
    }

    #[test]
    fn try_complete_retries_without_blocking() {
        let (io, clock) = resilient(RetryPolicy {
            retry_limit: 8,
            ..RetryPolicy::default()
        });
        io.write_at(0, &[4u8; 4096]).unwrap();
        let ticket = io.submit_read(&[ReadRequest::new(0, 4096)]).unwrap();
        // Everything after this submission fails until disarm — try_complete
        // must keep resubmitting (counting retries) rather than erroring out.
        clock.arm_transient(TransientFaults {
            seed: 6,
            read_error_rate: 1.0,
            ..TransientFaults::default()
        });
        // The first ticket was submitted before the faults armed, so it
        // completes; subsequent submissions retry through try_complete.
        let c = io.wait(ticket).unwrap();
        assert_eq!(&c.buffers[0][..], vec![4u8; 4096]);
        let err = io.submit_read(&[ReadRequest::new(0, 4096)]).unwrap_err();
        assert!(err.to_string().contains("gave up"), "{err}");
        clock.disarm_transient();
        let ticket = io.submit_read(&[ReadRequest::new(0, 4096)]).unwrap();
        let ready = io.try_complete(ticket).unwrap();
        let c = match ready {
            TryComplete::Ready(c) => c,
            TryComplete::Pending(t) => io.wait(t).unwrap(),
        };
        assert_eq!(&c.buffers[0][..], vec![4u8; 4096]);
    }

    /// A write of a shared image is retried by another reference to the
    /// image — never a copy — and what lands is exactly its bytes.
    #[test]
    fn a_shared_image_write_is_retried_by_reference_and_lands_whole() {
        let (io, clock) = resilient(RetryPolicy {
            retry_limit: 16,
            deadline_us: u64::MAX,
            ..RetryPolicy::default()
        });
        clock.arm_transient(TransientFaults {
            seed: 3,
            write_error_rate: 0.5,
            ..TransientFaults::default()
        });
        for i in 0..20u64 {
            let image: Arc<[u8]> = (0..4096u64).map(|b| (b * 7 + i) as u8).collect();
            let ticket = io.submit_write(&[WriteRequest::shared(i * 4096, &image)]).unwrap();
            assert_eq!(Arc::strong_count(&image), 2, "the flight keeps a reference, not a copy");
            io.wait(ticket).unwrap();
            assert_eq!(Arc::strong_count(&image), 1, "and lets it go at completion");
            assert_eq!(io.read_at(i * 4096, 4096).unwrap(), image, "write {i}");
        }
        assert!(
            clock.transient_counts().write_errors > 0,
            "the plan failed some submissions"
        );
        assert!(io.io_stats().retries > 0);
        assert_eq!(io.io_stats().give_ups, 0);
    }

    /// Fails the next completion it reaps with a retryable error, after the
    /// batch has reached the device — a lost acknowledgement.
    struct LostCompletion {
        inner: Arc<dyn IoQueue>,
        fail_next: std::sync::atomic::AtomicBool,
    }

    impl IoQueue for LostCompletion {
        fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
            self.inner.submit_read(reqs)
        }

        fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
            self.inner.submit_write(reqs)
        }

        fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
            let done = self.inner.wait(ticket)?;
            if self.fail_next.swap(false, Ordering::Relaxed) {
                let lost = std::io::Error::new(std::io::ErrorKind::Interrupted, "completion lost");
                return Err(IoError::Os(lost));
            }
            Ok(done)
        }

        fn try_complete(&self, ticket: Ticket) -> IoResult<TryComplete> {
            self.inner.try_complete(ticket)
        }

        fn io_stats(&self) -> IoStats {
            self.inner.io_stats()
        }

        fn reset_io_stats(&self) {
            self.inner.reset_io_stats()
        }
    }

    /// A borrowed write is retried from the wrapper's own copy: the caller
    /// may reuse its buffer the moment `submit_write` returns, and the retry
    /// still writes the bytes that were submitted.
    #[test]
    fn a_borrowed_write_is_retried_from_its_own_copy() {
        let sim: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 20));
        let lost = LostCompletion {
            inner: Arc::clone(&sim),
            fail_next: true.into(),
        };
        let io = ResilientIo::new(Arc::new(lost), RetryPolicy::default());
        let mut buffer = vec![5u8; 4096];
        let ticket = io.submit_write(&[WriteRequest::new(0, &buffer)]).unwrap();
        buffer.fill(6);
        io.wait(ticket).unwrap();
        assert_eq!(io.io_stats().retries, 1, "the lost completion was retried");
        assert_eq!(&sim.read_at(0, 4096).unwrap()[..], &[5u8; 4096][..]);
    }

    #[test]
    fn unknown_tickets_are_reported() {
        let (io, _clock) = resilient(RetryPolicy::default());
        assert!(matches!(io.wait(Ticket(99)), Err(IoError::UnknownTicket(99))));
    }
}
