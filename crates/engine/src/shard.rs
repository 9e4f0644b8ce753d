//! One key-range shard: an independent PIO B-tree, its load counters and its
//! health breaker.
//!
//! Every shard is a complete [`PioBTree`] with its own [`storage::CachedStore`],
//! operation queue and (optional) WAL — the engine-level analogue of the paper's
//! one-index-per-file layout, which Figure 4(b) shows behaves like independent
//! psync streams.

use crate::config::EngineConfig;
use crate::stats::ShardSnapshot;
use btree::Key;
use parking_lot::Mutex;
use pio::{IoQueue, IoResult};
use pio_btree::{PioBTree, PioConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use storage::{CachedStore, PageStore, Wal, WritePolicy};

/// One key-range shard: an independent PIO B-tree. Its key range is *not*
/// stored here — ranges live in the engine's [`crate::routing::RoutingState`]
/// so a boundary migration can move them without touching the shard itself.
pub(crate) struct Shard {
    /// Every piece of work on the shard locks this, on the thread that called
    /// the engine: through [`Shard::run`] for single-key calls, batched calls
    /// this shard owns whole and the maintenance and migration steps, and
    /// directly for a fan-out's leg, which holds it from the fan-out's lock
    /// point — every member's tree, locked in ascending shard order — until
    /// the leg finishes.
    pub(crate) tree: Mutex<PioBTree>,
    /// Point-request sub-batches this shard received through the batched entry
    /// points (`multi_search` / `insert_batch`) over the engine's lifetime.
    batched_calls: AtomicU64,
    /// Point requests those sub-batches carried in total; `batched_ops /
    /// batched_calls` is the shard's average batch occupancy — the engine-level
    /// ground truth for the service front end's occupancy metric.
    batched_ops: AtomicU64,
    /// Requests routed to this shard over the engine's lifetime (monotonic):
    /// the load signal. The rebalance monitor diffs it against its own
    /// baseline, `stats()` readers diff two snapshots.
    pub(crate) routed_total: AtomicU64,
    /// Peak OPQ fill (percent of capacity) observed after any write since the
    /// rebalance monitor last closed a window (it owns the reset): the
    /// queue-pressure signal.
    pub(crate) queue_peak_pct: AtomicU64,
    /// Health breaker of this shard's device (see [`ShardHealth`]).
    pub(crate) health: ShardHealth,
}

/// Consecutive device failures that trip a shard's breaker open. Transient
/// errors below this are already being absorbed by the retry wrapper — a run
/// of failures that *survives* retrying means the device is sick, not noisy.
const BREAKER_THRESHOLD: u64 = 3;

/// Circuit breaker over one shard's device health. Device-class failures
/// (OS errors, worker crashes, checksum corruption) of any call on the shard —
/// single-key or one leg of a batched fan-out — feed a consecutive-failure
/// counter; at [`BREAKER_THRESHOLD`] the breaker opens and the shard is
/// *degraded*: writes — single-key ones, and every `insert_batch` with a
/// sub-batch for the shard, whole — are rejected immediately with a retryable
/// error (instead of queueing work onto a sick device), reads are still
/// attempted — both cache classes keep serving whatever they hold. The background maintenance worker probes a
/// degraded shard's device each sweep and closes the breaker when a probe
/// succeeds.
#[derive(Default)]
pub(crate) struct ShardHealth {
    /// Device-class failures observed in a row (reset by any success).
    consecutive_failures: AtomicU64,
    /// Whether the breaker is open (shard degraded).
    open: AtomicBool,
    /// Times the breaker opened, lifetime.
    opens: AtomicU64,
    /// Times a maintenance probe closed it, lifetime.
    closes: AtomicU64,
    /// Checksum-corruption errors observed on this shard, lifetime.
    corruption_errors: AtomicU64,
}

impl ShardHealth {
    pub(crate) fn is_open(&self) -> bool {
        self.open.load(Ordering::Relaxed)
    }

    /// Whether `error` indicts the device (as opposed to a caller mistake like
    /// an out-of-bounds request, which says nothing about device health).
    fn indicts_device(error: &pio::IoError) -> bool {
        matches!(
            error,
            pio::IoError::Os(_) | pio::IoError::WorkerFailed(_) | pio::IoError::Corruption { .. }
        )
    }

    /// Feeds one operation outcome into the breaker. Successes heal the
    /// consecutive-failure count; device-class failures grow it and trip the
    /// breaker at the threshold.
    pub(crate) fn observe<T>(&self, result: &IoResult<T>) {
        match result {
            Ok(_) => {
                self.consecutive_failures.store(0, Ordering::Relaxed);
            }
            Err(e) if Self::indicts_device(e) => {
                if matches!(e, pio::IoError::Corruption { .. }) {
                    self.corruption_errors.fetch_add(1, Ordering::Relaxed);
                }
                let run = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                if run >= BREAKER_THRESHOLD && !self.open.swap(true, Ordering::Relaxed) {
                    self.opens.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {}
        }
    }

    /// Closes the breaker after a successful probe.
    pub(crate) fn close(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        if self.open.swap(false, Ordering::Relaxed) {
            self.closes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The retryable rejection a degraded shard answers writes with.
    pub(crate) fn rejection(shard: usize) -> pio::IoError {
        pio::IoError::Os(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            format!("shard {shard} is degraded (circuit breaker open); retry after the next maintenance probe"),
        ))
    }
}

impl Shard {
    pub(crate) fn new(tree: PioBTree) -> Self {
        Self {
            tree: Mutex::new(tree),
            batched_calls: AtomicU64::new(0),
            batched_ops: AtomicU64::new(0),
            routed_total: AtomicU64::new(0),
            queue_peak_pct: AtomicU64::new(0),
            health: ShardHealth::default(),
        }
    }

    /// The one way work runs on a shard: locks the tree, runs `op`, and returns
    /// its output with the simulated I/O time it consumed. The delta is taken
    /// whatever `op` returns — an error, a caught panic: any partially
    /// performed I/O is in the shard's elapsed time and the schedule makespan
    /// must stay in lockstep with it.
    pub(crate) fn run<R>(&self, op: impl FnOnce(&mut PioBTree) -> R) -> (R, f64) {
        let mut tree = self.tree.lock();
        let before = tree.io_elapsed_us();
        let out = op(&mut tree);
        (out, tree.io_elapsed_us() - before)
    }

    /// Counts one point-request sub-batch of `ops` requests landing on this shard.
    pub(crate) fn note_batch(&self, ops: usize) {
        self.batched_calls.fetch_add(1, Ordering::Relaxed);
        self.batched_ops.fetch_add(ops as u64, Ordering::Relaxed);
        self.note_routed(ops as u64);
    }

    /// Counts `ops` requests routed to this shard.
    pub(crate) fn note_routed(&self, ops: u64) {
        self.routed_total.fetch_add(ops, Ordering::Relaxed);
    }

    /// Folds the OPQ fill after a write into the shard's queue-pressure peak.
    pub(crate) fn note_queue_peak(&self, tree: &PioBTree) {
        let pct = (tree.opq_len() * 100 / tree.opq_capacity().max(1)) as u64;
        self.queue_peak_pct.fetch_max(pct, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of shard `shard`, which owns `[key_lo, key_hi)`.
    pub(crate) fn snapshot(&self, shard: usize, key_lo: Key, key_hi: Key) -> ShardSnapshot {
        let batched_calls = self.batched_calls.load(Ordering::Relaxed);
        let batched_ops = self.batched_ops.load(Ordering::Relaxed);
        let routed_ops = self.routed_total.load(Ordering::Relaxed);
        let queue_peak_pct = self.queue_peak_pct.load(Ordering::Relaxed);
        let degraded = self.health.is_open();
        let consecutive_failures = self.health.consecutive_failures.load(Ordering::Relaxed);
        let breaker_opens = self.health.opens.load(Ordering::Relaxed);
        let breaker_closes = self.health.closes.load(Ordering::Relaxed);
        let corruption_errors = self.health.corruption_errors.load(Ordering::Relaxed);
        let tree = self.tree.lock();
        let mut backend_io = tree.store().store().io().io_stats();
        // The shard WAL appends through its own retry-wrapped queue; its
        // retries and give-ups belong in the same resilience rollup.
        if let Some(wal) = tree.wal() {
            let wal_io = wal.io().io_stats();
            backend_io.retries += wal_io.retries;
            backend_io.give_ups += wal_io.give_ups;
        }
        ShardSnapshot {
            shard,
            key_lo,
            key_hi,
            height: tree.height(),
            pipeline_depth: tree.pipeline_depth(),
            opq_len: tree.opq_len(),
            opq_capacity: tree.opq_capacity(),
            batched_calls,
            batched_ops,
            routed_ops,
            queue_peak_pct,
            pio: tree.stats(),
            pool: tree.store().pool_stats(),
            leaf_cache: tree.store().leaf_cache_stats(),
            store: tree.store().store().stats(),
            io_elapsed_us: tree.io_elapsed_us(),
            wal_replayable_bytes: tree.wal_replayable_bytes(),
            degraded,
            consecutive_failures,
            breaker_opens,
            breaker_closes,
            corruption_errors,
            integrity: tree.store().integrity_stats(),
            io_retries: backend_io.retries,
            io_give_ups: backend_io.give_ups,
        }
    }
}

/// Wraps a provisioned backend in [`pio::ResilientIo`] under
/// [`EngineConfig::retry_policy`], so transient device errors are retried with
/// backoff below the store and the shard WAL alike (backoff is
/// charged into the queue's simulated I/O time, never slept — the engine's
/// backends simulate time).
pub(crate) fn resilient(io: Arc<dyn IoQueue>) -> Arc<dyn IoQueue> {
    Arc::new(pio::ResilientIo::new(io, EngineConfig::retry_policy()))
}

/// Builds one shard over its provisioned backends (its own "index file" — a
/// simulated device, a partition of a shared device, or a real file, per the
/// topology): a fresh cached store over `store_io`, the tree `load` puts on it
/// (a bulk load, or a reopen from a manifest snapshot), and — when the WAL is
/// enabled — the shard's log over `wal_io`. The log gets its own queue so log
/// appends never interleave with index-node I/O inside one psync call, and the
/// same retry policy that guards the store wraps it — a dropped WAL append
/// would fail an otherwise healthy flush epoch.
pub(crate) fn build_shard(
    cfg: &PioConfig,
    store_io: Arc<dyn IoQueue>,
    wal_io: Option<&Arc<dyn IoQueue>>,
    load: impl FnOnce(Arc<CachedStore>) -> IoResult<PioBTree>,
) -> IoResult<Shard> {
    let mut tree = load(Arc::new(CachedStore::new(
        PageStore::new(resilient(store_io), cfg.page_size),
        cfg.pool_pages,
        WritePolicy::WriteThrough,
    )))?;
    if cfg.wal_enabled {
        let wal_io = wal_io.expect("validated: one WAL backend per shard when the WAL is enabled");
        tree.attach_wal(Wal::new(resilient(Arc::clone(wal_io)), 0, cfg.page_size));
    }
    Ok(Shard::new(tree))
}
