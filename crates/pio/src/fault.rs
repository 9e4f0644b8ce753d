//! Fault injection for crash-recovery testing.
//!
//! Recovery code is only as trustworthy as the crash points it has been tested
//! under, and hand-picked crash points miss the interesting ones (Didona et al.,
//! *Toward a Better Understanding and Evaluation of Tree Structures on Flash
//! SSDs*, make exactly this argument for tree-on-SSD evaluation). This module is
//! the one fault-injection harness shared by the `storage`, `pio-btree` and
//! `engine` test suites: a transparent [`IoQueue`] wrapper ([`FaultIo`]) driven
//! by a shared [`FaultClock`] that can kill an arbitrary write — the N-th write
//! submission across *all* wrapped backends, or the first write whose payload
//! matches a predicate (e.g. "the batch carrying the `EpochCommit` record") —
//! optionally leaving a **torn** final write behind, and then halting every
//! subsequent submission the way a real crash halts a process.
//!
//! The intended loop for randomized crash testing:
//!
//! 1. wrap every backend of the system under test in a [`FaultIo`] sharing one
//!    [`FaultClock`];
//! 2. run the deterministic workload once with no plan armed and read
//!    [`FaultClock::writes_seen`] — the number of write submissions `W`;
//! 3. for each crash point `k < W`: rebuild the system, arm
//!    [`CrashPlan::at_write`]`(k)`, run until the injected failure surfaces,
//!    [`FaultClock::heal`] the clock, run recovery, and compare the recovered
//!    state against an oracle.
//!
//! ## Transient (non-fatal) faults
//!
//! Real SSDs misbehave without dying: transient EIOs, GC-induced latency
//! spikes, and silent bit rot. [`FaultClock::arm_transient`] arms a seeded
//! [`TransientFaults`] plan alongside (or instead of) a crash plan: every
//! submission rolls a deterministic splitmix64 stream to decide whether it
//! fails with a *retryable* error (`ErrorKind::Interrupted`, so
//! [`IoError::is_retryable`] classifies it without string sniffing), completes
//! with an inflated `elapsed_us` (a straggler ticket), or — reads only —
//! returns a payload with one bit flipped (the device data stays intact, so a
//! checksum-triggered re-read recovers). Injections are counted in
//! [`TransientCounts`] so soaks can assert the plan actually exercised the
//! system. Combined with [`crate::ResilientIo`] this turns the crash harness
//! into a full transient-fault harness.

use crate::error::{IoError, IoResult};
use crate::queue::{Completion, IoQueue, Ticket};
use crate::request::{ReadRequest, WriteRequest};
use crate::stats::IoStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Advances a splitmix64 state and returns the next value of the stream —
/// deterministic, seedable, and dependency-free (this crate deliberately has no
/// RNG dependency).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the splitmix64 stream.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded plan of *non-fatal* device misbehaviour, armed with
/// [`FaultClock::arm_transient`]. All rates are probabilities in `[0, 1]`
/// evaluated per submission on one deterministic stream, so a fixed seed and a
/// fixed submission order reproduce the exact same fault schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransientFaults {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability that a read submission fails with a retryable error.
    pub read_error_rate: f64,
    /// Probability that a write submission fails with a retryable error.
    pub write_error_rate: f64,
    /// Probability that a submission becomes a straggler ticket whose
    /// completion reports `spike_us` extra `elapsed_us` (models GC pauses).
    pub spike_rate: f64,
    /// Extra latency charged to a straggler ticket, in µs.
    pub spike_us: f64,
    /// Probability that a read completion returns a payload with one bit
    /// flipped (the stored data is untouched — a re-read returns clean bytes).
    pub flip_rate: f64,
}

/// How many faults an armed [`TransientFaults`] plan has actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransientCounts {
    /// Read submissions failed with a retryable error.
    pub read_errors: u64,
    /// Write submissions failed with a retryable error.
    pub write_errors: u64,
    /// Read completions returned with one bit flipped.
    pub bit_flips: u64,
    /// Completions charged the straggler latency spike.
    pub latency_spikes: u64,
}

struct TransientState {
    cfg: TransientFaults,
    rng: u64,
}

/// Faults decided at submission time but applied at completion time.
#[derive(Debug, Clone, Copy)]
struct Decoration {
    spike_us: f64,
    /// `(request index, byte offset, bit)` of a read-payload bit flip.
    flip: Option<(usize, usize, u8)>,
}

/// A predicate over a write batch, used by [`Trigger::OnPayload`].
pub type PayloadPredicate = Box<dyn Fn(&[WriteRequest<'_>]) -> bool + Send>;

/// Decides which submission the crash fires on.
pub enum Trigger {
    /// The `k`-th write submission observed by the shared clock (0-based, counted
    /// across every [`FaultIo`] sharing the clock).
    AtWrite(u64),
    /// The `k`-th *read* submission observed by the shared clock (0-based,
    /// counted across every [`FaultIo`] sharing the clock). Read faults model a
    /// backend dying while a read pipeline holds tickets in flight — the drain
    /// discipline of the tree's pipelined hot paths is tested against these.
    AtRead(u64),
    /// The first write submission whose request batch satisfies the predicate
    /// (e.g. "carries a WAL record of kind X").
    OnPayload(PayloadPredicate),
}

/// How much of the triggering write lands on the device before the failure: the
/// first `keep_requests` requests in full, plus the first `keep_bytes_of_next`
/// bytes of the following request — a torn write.
#[derive(Debug, Clone, Copy, Default)]
pub struct TornWrite {
    /// Requests of the triggering batch that are applied completely.
    pub keep_requests: usize,
    /// Bytes of the next request that still land (a torn page).
    pub keep_bytes_of_next: usize,
}

/// A scripted crash: when [`Trigger`] fires, the triggering write fails (after
/// optionally applying a [`TornWrite`] prefix), and — unless `one_shot` — the
/// clock halts, so every subsequent submission on every wrapped backend fails
/// too, the way a dead process stops doing I/O.
pub struct CrashPlan {
    /// When to fire.
    pub trigger: Trigger,
    /// Partial application of the triggering write (`None`: nothing lands).
    pub torn: Option<TornWrite>,
    /// `true`: only the triggering submission fails and the system keeps running
    /// (transient-fault mode, the old inline `FailingIo` behaviour). `false`:
    /// the clock halts until [`FaultClock::heal`].
    pub one_shot: bool,
}

impl CrashPlan {
    /// A crash at the `k`-th write submission seen by the clock.
    pub fn at_write(k: u64) -> Self {
        Self {
            trigger: Trigger::AtWrite(k),
            torn: None,
            one_shot: false,
        }
    }

    /// A crash at the `k`-th read submission seen by the clock.
    pub fn at_read(k: u64) -> Self {
        Self {
            trigger: Trigger::AtRead(k),
            torn: None,
            one_shot: false,
        }
    }

    /// A crash on the first write batch whose requests satisfy `pred`.
    pub fn on_payload(pred: impl Fn(&[WriteRequest<'_>]) -> bool + Send + 'static) -> Self {
        Self {
            trigger: Trigger::OnPayload(Box::new(pred)),
            torn: None,
            one_shot: false,
        }
    }

    /// Leaves a torn prefix of the triggering write on the device.
    pub fn with_torn(mut self, torn: TornWrite) -> Self {
        self.torn = Some(torn);
        self
    }

    /// Makes the failure transient: only the triggering submission fails.
    pub fn transient(mut self) -> Self {
        self.one_shot = true;
        self
    }
}

#[derive(Default)]
struct ClockState {
    plan: Option<CrashPlan>,
    halted: bool,
    tripped: bool,
    transient: Option<TransientState>,
}

/// The shared trigger state of a set of [`FaultIo`] wrappers.
///
/// One clock is typically shared by every backend of the system under test
/// (index stores and shard WALs), so "crash at write `k`" means the
/// `k`-th write submission *anywhere in the system* — the global crash points a
/// randomized harness sweeps over.
#[derive(Default)]
pub struct FaultClock {
    writes: AtomicU64,
    reads: AtomicU64,
    state: Mutex<ClockState>,
    transient_read_errors: AtomicU64,
    transient_write_errors: AtomicU64,
    bit_flips: AtomicU64,
    latency_spikes: AtomicU64,
}

impl FaultClock {
    /// A clock with no plan armed (counts writes, never fails).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Arms a crash plan (replacing any previous one) and clears the tripped flag.
    pub fn arm(&self, plan: CrashPlan) {
        let mut state = self.state.lock();
        state.plan = Some(plan);
        state.tripped = false;
    }

    /// Removes the plan without clearing a halt.
    pub fn disarm(&self) {
        self.state.lock().plan = None;
    }

    /// Clears the plan *and* the halt — the "restart" step before recovery runs.
    pub fn heal(&self) {
        let mut state = self.state.lock();
        state.plan = None;
        state.halted = false;
    }

    /// Write submissions observed so far (counted whether or not a plan is armed).
    pub fn writes_seen(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Read submissions observed so far (counted whether or not a plan is armed).
    pub fn reads_seen(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Whether an armed plan has fired.
    pub fn tripped(&self) -> bool {
        self.state.lock().tripped
    }

    /// Whether the clock is halted (every submission fails until [`FaultClock::heal`]).
    pub fn halted(&self) -> bool {
        self.state.lock().halted
    }

    /// Arms a seeded transient-fault plan (replacing any previous one). Unlike
    /// a [`CrashPlan`] it never halts the clock: every injected failure is
    /// one-shot and retryable, and injection continues until
    /// [`FaultClock::disarm_transient`]. Coexists with an armed crash plan —
    /// the crash trigger is checked first.
    pub fn arm_transient(&self, faults: TransientFaults) {
        self.state.lock().transient = Some(TransientState {
            rng: faults.seed ^ 0x5DEE_CE66_D175_11E5,
            cfg: faults,
        });
    }

    /// Removes the transient-fault plan (already-decorated in-flight tickets
    /// still complete with their faults applied).
    pub fn disarm_transient(&self) {
        self.state.lock().transient = None;
    }

    /// How many transient faults have been injected since the clock was built.
    pub fn transient_counts(&self) -> TransientCounts {
        TransientCounts {
            read_errors: self.transient_read_errors.load(Ordering::Relaxed),
            write_errors: self.transient_write_errors.load(Ordering::Relaxed),
            bit_flips: self.bit_flips.load(Ordering::Relaxed),
            latency_spikes: self.latency_spikes.load(Ordering::Relaxed),
        }
    }
}

/// An [`IoQueue`] wrapper that injects the shared [`FaultClock`]'s crash plan
/// into the write path of the backend it wraps.
pub struct FaultIo {
    inner: Arc<dyn IoQueue>,
    clock: Arc<FaultClock>,
    /// Completion-time faults keyed by the inner ticket id (each `FaultIo`
    /// wraps exactly one backend, so inner ids are unique within this map).
    pending: Mutex<HashMap<u64, Decoration>>,
}

impl FaultIo {
    /// Wraps `inner`, observing (and obeying) `clock`.
    pub fn new(inner: Arc<dyn IoQueue>, clock: Arc<FaultClock>) -> Self {
        Self {
            inner,
            clock,
            pending: Mutex::new(HashMap::new()),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &Arc<FaultClock> {
        &self.clock
    }

    fn injected(what: &str) -> IoError {
        IoError::WorkerFailed(format!("injected crash: {what}"))
    }

    /// A retryable injected failure: `Interrupted` keeps
    /// [`IoError::is_retryable`] structural (no string sniffing) and matches
    /// what a signal-interrupted syscall looks like from the file backend.
    fn transient(what: &str) -> IoError {
        IoError::Os(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            format!("injected transient {what} error"),
        ))
    }

    /// Rolls the armed transient plan for one read submission. `Err` fails the
    /// submission; `Ok(Some(..))` decorates its completion.
    fn roll_read(state: &mut ClockState, reqs: &[ReadRequest]) -> Result<Option<Decoration>, ()> {
        let Some(t) = state.transient.as_mut() else {
            return Ok(None);
        };
        let cfg = t.cfg;
        if cfg.read_error_rate > 0.0 && unit(&mut t.rng) < cfg.read_error_rate {
            return Err(());
        }
        let spike_us = if cfg.spike_rate > 0.0 && unit(&mut t.rng) < cfg.spike_rate {
            cfg.spike_us
        } else {
            0.0
        };
        let flip = if cfg.flip_rate > 0.0 && unit(&mut t.rng) < cfg.flip_rate && !reqs.is_empty() {
            let req = (splitmix64(&mut t.rng) as usize) % reqs.len();
            let len = reqs[req].len;
            (len > 0).then(|| {
                let byte = (splitmix64(&mut t.rng) as usize) % len;
                let bit = (splitmix64(&mut t.rng) % 8) as u8;
                (req, byte, bit)
            })
        } else {
            None
        };
        if spike_us > 0.0 || flip.is_some() {
            Ok(Some(Decoration { spike_us, flip }))
        } else {
            Ok(None)
        }
    }

    /// Rolls the armed transient plan for one write submission (no bit flips —
    /// flipping what lands on the device would be *persistent* corruption,
    /// which scrub tests inject explicitly by writing raw bytes instead).
    fn roll_write(state: &mut ClockState) -> Result<Option<Decoration>, ()> {
        let Some(t) = state.transient.as_mut() else {
            return Ok(None);
        };
        let cfg = t.cfg;
        if cfg.write_error_rate > 0.0 && unit(&mut t.rng) < cfg.write_error_rate {
            return Err(());
        }
        let spike_us = if cfg.spike_rate > 0.0 && unit(&mut t.rng) < cfg.spike_rate {
            cfg.spike_us
        } else {
            0.0
        };
        if spike_us > 0.0 {
            Ok(Some(Decoration { spike_us, flip: None }))
        } else {
            Ok(None)
        }
    }

    /// Remembers completion-time faults for a freshly issued ticket.
    fn decorate(&self, ticket: &Ticket, decor: Option<Decoration>) {
        if let Some(d) = decor {
            if d.spike_us > 0.0 {
                self.clock.latency_spikes.fetch_add(1, Ordering::Relaxed);
            }
            if d.flip.is_some() {
                self.clock.bit_flips.fetch_add(1, Ordering::Relaxed);
            }
            self.pending.lock().insert(ticket.id(), d);
        }
    }

    /// Applies a ticket's remembered faults to its completion. A flip goes
    /// through [`Arc::make_mut`]: the backends hand out unshared images, so it
    /// changes the returned image in place and never the device's bytes.
    fn apply_decoration(completion: &mut Completion, decor: Decoration) {
        completion.stats.elapsed_us += decor.spike_us;
        if let Some((req, byte, bit)) = decor.flip {
            if let Some(b) = completion
                .buffers
                .get_mut(req)
                .and_then(|image| Arc::make_mut(image).get_mut(byte))
            {
                *b ^= 1 << bit;
            }
        }
    }

    /// Applies the torn prefix of a failing write batch to the wrapped backend.
    fn apply_torn(&self, reqs: &[WriteRequest<'_>], torn: TornWrite) {
        let keep = torn.keep_requests.min(reqs.len());
        let mut partial: Vec<WriteRequest<'_>> = reqs[..keep].to_vec();
        if let Some(next) = reqs.get(keep) {
            let cut = torn.keep_bytes_of_next.min(next.data.len());
            if cut > 0 {
                partial.push(WriteRequest::new(next.offset, &next.data[..cut]));
            }
        }
        if partial.is_empty() {
            return;
        }
        // Best effort: the device is about to "lose power", so a failure of the
        // torn prefix itself is indistinguishable from the crash.
        if let Ok(ticket) = self.inner.submit_write(&partial) {
            let _ = self.inner.wait(ticket);
        }
    }
}

impl IoQueue for FaultIo {
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        // An empty batch never touches the device: every backend answers it
        // with `Ticket::empty()` without doing I/O, so there is nothing to
        // crash or to fault (and retry wrappers deliberately pass the empty
        // case straight through, so an injected error here would bypass them).
        if reqs.is_empty() {
            return self.inner.submit_read(reqs);
        }
        let n = self.clock.reads.fetch_add(1, Ordering::Relaxed);
        let mut state = self.clock.state.lock();
        if state.halted {
            return Err(Self::injected("read after halt"));
        }
        let fire = matches!(&state.plan, Some(plan) if matches!(&plan.trigger, Trigger::AtRead(k) if n == *k));
        if !fire {
            let decor = match Self::roll_read(&mut state, reqs) {
                Ok(d) => d,
                Err(()) => {
                    drop(state);
                    self.clock.transient_read_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(Self::transient("read"));
                }
            };
            drop(state);
            let ticket = self.inner.submit_read(reqs)?;
            self.decorate(&ticket, decor);
            return Ok(ticket);
        }
        let plan = state.plan.take().expect("fired plan exists");
        state.tripped = true;
        state.halted = !plan.one_shot;
        Err(Self::injected("read submission"))
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        // See `submit_read`: an empty batch is a device no-op.
        if reqs.is_empty() {
            return self.inner.submit_write(reqs);
        }
        let n = self.clock.writes.fetch_add(1, Ordering::Relaxed);
        let mut state = self.clock.state.lock();
        if state.halted {
            return Err(Self::injected("write after halt"));
        }
        let fire = match &state.plan {
            Some(plan) => match &plan.trigger {
                Trigger::AtWrite(k) => n == *k,
                Trigger::AtRead(_) => false,
                Trigger::OnPayload(pred) => pred(reqs),
            },
            None => false,
        };
        if !fire {
            let decor = match Self::roll_write(&mut state) {
                Ok(d) => d,
                Err(()) => {
                    drop(state);
                    self.clock.transient_write_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(Self::transient("write"));
                }
            };
            drop(state);
            let ticket = self.inner.submit_write(reqs)?;
            self.decorate(&ticket, decor);
            return Ok(ticket);
        }
        let plan = state.plan.take().expect("fired plan exists");
        state.tripped = true;
        state.halted = !plan.one_shot;
        drop(state);
        if let Some(torn) = plan.torn {
            self.apply_torn(reqs, torn);
        }
        Err(Self::injected("write submission"))
    }

    fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
        let decor = self.pending.lock().remove(&ticket.id());
        let mut completion = self.inner.wait(ticket)?;
        if let Some(d) = decor {
            Self::apply_decoration(&mut completion, d);
        }
        Ok(completion)
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

    /// Reclaim passes straight through: it is advisory space bookkeeping, not a
    /// logged write, so it neither advances the fault clock nor trips a plan —
    /// crash points stay aligned with the writes the plans were profiled on.
    fn reclaim_to(&self, len: u64) -> IoResult<()> {
        self.inner.reclaim_to(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoQueue, SimPsyncIo};
    use ssd_sim::DeviceProfile;

    fn wrapped() -> (FaultIo, Arc<FaultClock>) {
        let clock = FaultClock::new();
        let inner: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 20));
        (FaultIo::new(Arc::clone(&inner), Arc::clone(&clock)), clock)
    }

    #[test]
    fn unarmed_clock_counts_and_passes_through() {
        let (io, clock) = wrapped();
        io.write_at(0, b"hello").unwrap();
        io.write_at(4096, b"world").unwrap();
        assert_eq!(&io.read_at(0, 5).unwrap()[..], b"hello");
        assert_eq!(clock.writes_seen(), 2);
        assert!(!clock.tripped());
    }

    #[test]
    fn at_write_trigger_halts_everything_until_heal() {
        let (io, clock) = wrapped();
        io.write_at(0, b"before").unwrap();
        clock.arm(CrashPlan::at_write(1));
        let err = io.write_at(4096, b"doomed").unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(clock.tripped());
        // Halted: reads and writes both fail, like a dead process.
        assert!(io.write_at(8192, b"after").is_err());
        assert!(io.read_at(0, 6).is_err());
        clock.heal();
        assert_eq!(&io.read_at(0, 6).unwrap()[..], b"before");
        assert_eq!(
            &io.read_at(4096, 6).unwrap()[..],
            vec![0u8; 6],
            "doomed write never landed"
        );
    }

    #[test]
    fn transient_failure_is_one_shot() {
        let (io, clock) = wrapped();
        clock.arm(CrashPlan::at_write(0).transient());
        assert!(io.write_at(0, b"fails").is_err());
        io.write_at(0, b"works").unwrap();
        assert_eq!(&io.read_at(0, 5).unwrap()[..], b"works");
    }

    #[test]
    fn torn_write_leaves_a_prefix() {
        let (io, clock) = wrapped();
        clock.arm(CrashPlan::at_write(0).with_torn(TornWrite {
            keep_requests: 1,
            keep_bytes_of_next: 2,
        }));
        let reqs = [WriteRequest::new(0, b"whole"), WriteRequest::new(4096, b"partial")];
        assert!(io.psync_write(&reqs).is_err());
        clock.heal();
        assert_eq!(&io.read_at(0, 5).unwrap()[..], b"whole");
        let torn = io.read_at(4096, 7).unwrap();
        assert_eq!(&torn[..2], b"pa");
        assert_eq!(&torn[2..], &[0u8; 5][..], "tail of the torn request never landed");
    }

    #[test]
    fn payload_predicate_targets_a_specific_write() {
        let (io, clock) = wrapped();
        clock.arm(CrashPlan::on_payload(|reqs| {
            reqs.iter().any(|r| r.data.windows(5).any(|w| w == b"MAGIC"))
        }));
        io.write_at(0, b"plain").unwrap();
        assert!(io.write_at(4096, b"xxMAGICxx").is_err());
        assert!(clock.tripped());
    }

    #[test]
    fn transient_read_errors_are_seeded_and_retryable() {
        let (io, clock) = wrapped();
        io.write_at(0, &[7u8; 4096]).unwrap();
        clock.arm_transient(TransientFaults {
            seed: 42,
            read_error_rate: 0.5,
            ..TransientFaults::default()
        });
        let mut errors = 0;
        for _ in 0..64 {
            match io.read_at(0, 4096) {
                Ok(data) => assert_eq!(&data[..], vec![7u8; 4096], "payload must be clean"),
                Err(e) => {
                    assert!(
                        e.is_retryable(),
                        "injected transient error must classify retryable: {e}"
                    );
                    errors += 1;
                }
            }
        }
        assert!(errors > 0, "0.5 rate over 64 reads must inject");
        assert_eq!(clock.transient_counts().read_errors, errors);
        clock.disarm_transient();
        io.read_at(0, 4096).unwrap();
    }

    #[test]
    fn transient_schedule_is_deterministic_for_a_seed() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let (io, clock) = wrapped();
            io.write_at(0, &[1u8; 512]).unwrap();
            clock.arm_transient(TransientFaults {
                seed,
                read_error_rate: 0.3,
                write_error_rate: 0.3,
                ..TransientFaults::default()
            });
            (0..40)
                .map(|i| {
                    if i % 2 == 0 {
                        io.read_at(0, 512).is_ok()
                    } else {
                        io.write_at(0, &[1u8; 512]).is_ok()
                    }
                })
                .collect()
        };
        assert_eq!(outcomes(7), outcomes(7), "same seed, same schedule");
        assert_ne!(outcomes(7), outcomes(8), "different seed, different schedule");
    }

    #[test]
    fn bit_flips_corrupt_the_returned_copy_not_the_device() {
        let (io, clock) = wrapped();
        let page = vec![0xA5u8; 4096];
        io.write_at(0, &page).unwrap();
        clock.arm_transient(TransientFaults {
            seed: 3,
            flip_rate: 1.0,
            ..TransientFaults::default()
        });
        let corrupt = io.read_at(0, 4096).unwrap();
        assert_ne!(&corrupt[..], page, "flip must corrupt the returned payload");
        let diff: u32 = corrupt.iter().zip(&page).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff, 1, "exactly one bit flips");
        assert_eq!(clock.transient_counts().bit_flips, 1);
        clock.disarm_transient();
        assert_eq!(&io.read_at(0, 4096).unwrap()[..], page, "device data was never touched");
    }

    #[test]
    fn latency_spikes_inflate_completion_time_only() {
        let (io, clock) = wrapped();
        io.write_at(0, &[2u8; 4096]).unwrap();
        let baseline = {
            let t = io.submit_read(&[ReadRequest::new(0, 4096)]).unwrap();
            io.wait(t).unwrap().stats.elapsed_us
        };
        clock.arm_transient(TransientFaults {
            seed: 9,
            spike_rate: 1.0,
            spike_us: 50_000.0,
            ..TransientFaults::default()
        });
        let t = io.submit_read(&[ReadRequest::new(0, 4096)]).unwrap();
        let c = io.wait(t).unwrap();
        assert!(
            c.stats.elapsed_us >= baseline + 50_000.0,
            "straggler must report the spike: {} vs baseline {}",
            c.stats.elapsed_us,
            baseline
        );
        assert_eq!(&c.buffers[0][..], vec![2u8; 4096], "spike leaves the payload alone");
        assert_eq!(clock.transient_counts().latency_spikes, 1);
    }

    #[test]
    fn one_clock_spans_many_backends() {
        let clock = FaultClock::new();
        let a = FaultIo::new(
            Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 20)),
            Arc::clone(&clock),
        );
        let b = FaultIo::new(
            Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 20)),
            Arc::clone(&clock),
        );
        a.write_at(0, b"a0").unwrap();
        b.write_at(0, b"b0").unwrap();
        clock.arm(CrashPlan::at_write(2));
        // The third write anywhere fires, and the halt spans both backends.
        assert!(a.write_at(4096, b"a1").is_err());
        assert!(b.write_at(4096, b"b1").is_err());
        assert_eq!(clock.writes_seen(), 4);
    }
}
