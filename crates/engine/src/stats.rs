//! Aggregated statistics of a [`crate::ShardedPioEngine`].

use crate::routing::shard_range;
use crate::sharded::EngineInner;
use btree::Key;
use pio_btree::PioStats;
use std::sync::atomic::{AtomicU64, Ordering};
use storage::{CacheStats, IntegrityStats, StoreStats};

/// A point-in-time snapshot of one shard.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Shard index (position in key order).
    pub shard: usize,
    /// Inclusive lower bound of the shard's key range.
    pub key_lo: Key,
    /// Exclusive upper bound of the shard's key range (`Key::MAX` means the shard
    /// also owns `Key::MAX` itself).
    pub key_hi: Key,
    /// Tree height in levels.
    pub height: usize,
    /// Resolved ticket-pipeline depth of the shard tree's batched hot paths
    /// (`Auto` resolves against the shard's provisioned backend, so custom
    /// topologies may differ per shard).
    pub pipeline_depth: usize,
    /// Operations currently buffered in the shard's OPQ.
    pub opq_len: usize,
    /// OPQ capacity in entries.
    pub opq_capacity: usize,
    /// Point-request sub-batches this shard received through the engine's
    /// batched entry points (`multi_search` / `insert_batch`).
    pub batched_calls: u64,
    /// Point requests those sub-batches carried in total;
    /// `batched_ops / batched_calls` is the shard's average batch occupancy.
    pub batched_ops: u64,
    /// Requests routed to this shard (reads and writes alike, batched or not)
    /// over the engine's lifetime — the load half of the rebalancer's
    /// per-shard signal. Monotonic: diff two snapshots for a window.
    pub routed_ops: u64,
    /// Peak OPQ fill observed after any write since the rebalance monitor last
    /// closed a window (each `rebalance_once` / auto tick resets it; never, if
    /// nothing ticks), as a percentage of capacity — the queue-pressure half
    /// of the rebalancer's signal.
    pub queue_peak_pct: u64,
    /// The shard tree's operation counters.
    pub pio: PioStats,
    /// Page-class counters of the shard's cached store: the single pages
    /// (internal nodes, leaf-segment pages) under
    /// [`pio_btree::PioConfig::pool_pages`]. `scan_bypasses` is always 0 —
    /// the class ignores access hints.
    pub pool: CacheStats,
    /// Region-class counters of the same store: the scan-resistant cache of
    /// multi-page leaf regions (all zero when
    /// [`crate::EngineConfig::leaf_cache_bytes`] is unset; `dirty_evictions`
    /// is always 0 — regions are never kept dirty).
    pub leaf_cache: CacheStats,
    /// Page-store counters (psync batches, page reads/writes, allocation).
    pub store: StoreStats,
    /// Simulated I/O time this shard's store has consumed, µs.
    pub io_elapsed_us: f64,
    /// Logical WAL bytes a recovery of this shard would still scan (durable
    /// minus truncated; 0 without a WAL). Checkpoint-anchored truncation keeps
    /// this proportional to activity since the shard's last checkpoint.
    pub wal_replayable_bytes: u64,
    /// Whether the shard's health breaker is open: writes are being rejected
    /// with a retryable error until a maintenance probe heals the device.
    pub degraded: bool,
    /// Device-class failures observed in a row on the shard's foreground path
    /// (reset by any success; the breaker opens at 3).
    pub consecutive_failures: u64,
    /// Times this shard's breaker opened over the engine's lifetime.
    pub breaker_opens: u64,
    /// Times a maintenance probe closed this shard's breaker.
    pub breaker_closes: u64,
    /// Checksum-corruption errors this shard's foreground path returned.
    pub corruption_errors: u64,
    /// Page-checksum counters of the shard's store: verify failures and
    /// recoveries on the read path, plus background-scrub progress.
    pub integrity: IntegrityStats,
    /// Batches the shard's resilient I/O wrapper resubmitted after a
    /// transient failure (see [`crate::EngineConfig::retry_policy`]).
    pub io_retries: u64,
    /// Attempts the wrapper abandoned after the retry budget or deadline ran
    /// out — each one surfaced to the caller as a retryable timeout.
    pub io_give_ups: u64,
}

/// Roll-up of every shard plus engine-level schedule accounting.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Name of the storage topology the shards were provisioned on
    /// (`device-per-shard`, `shared-device`, `real-files`, …).
    pub topology: &'static str,
    /// Per-shard snapshots, in key order.
    pub shards: Vec<ShardSnapshot>,
    /// Sum of all shards' operation counters.
    pub rollup: PioStats,
    /// Sum of all shards' simulated I/O time, µs — the *device work* performed.
    pub total_io_us: f64,
    /// Schedule makespan, µs: per engine call, the participating shards issue their
    /// psync streams concurrently, so the call costs the *maximum* of the per-shard
    /// times; this field accumulates those maxima. With one shard it equals
    /// `total_io_us`; the gap between the two is the engine's I/O overlap win.
    pub scheduled_io_us: f64,
    /// Batched calls and maintenance passes scheduled: fan-outs dispatched to
    /// the shard workers, plus batched calls one shard owned and ran on their
    /// caller. Single-key operations are not counted here.
    pub scheduled_batches: u64,
    /// Point-request sub-batches landed on shards through `multi_search` /
    /// `insert_batch` (sum over shards; each fan-out contributes one sub-batch
    /// per participating shard).
    pub batched_calls: u64,
    /// Point requests those sub-batches carried in total — the engine-level
    /// ground truth behind any front end's batch-occupancy metric (see
    /// [`EngineStats::avg_batch_occupancy`]).
    pub batched_ops: u64,
    /// Largest resolved ticket-pipeline depth across the shards (every shard's
    /// own value is in its [`ShardSnapshot::pipeline_depth`]; on the shipped
    /// topologies all shards resolve identically).
    pub pipeline_depth: usize,
    /// Aggregate page-class hit ratio across shards in `[0, 1]`.
    pub pool_hit_ratio: f64,
    /// Sum of all shards' region-class counters (all zero when
    /// [`crate::EngineConfig::leaf_cache_bytes`] is unset).
    pub leaf_cache: CacheStats,
    /// Total operations buffered in shard OPQs.
    pub queued_ops: usize,
    /// Cross-shard flush epochs committed (one per `insert_batch` that spans
    /// shards with WALs enabled). Batches one shard committed alone are not
    /// epochs: see `local_commits`.
    pub committed_epochs: u64,
    /// Batches committed by a single shard's local bracket — no engine epoch,
    /// no commit record (one per single-shard `insert_batch` with WALs
    /// enabled).
    pub local_commits: u64,
    /// Uncommitted epochs that recovery discarded on every member shard —
    /// batches and rolled-back migrations alike.
    pub discarded_epochs: u64,
    /// Hot shards split at a median key since the engine was built (see the
    /// `rebalance` module).
    pub splits: u64,
    /// Cold shard ranges merged into a neighbour since the engine was built.
    pub merges: u64,
    /// Keys moved between shards by migrations in total.
    pub migrated_keys: u64,
    /// Migrations whose `MigrateCommit` recovery found durable and whose
    /// boundary swap it re-applied.
    pub committed_migrations: u64,
    /// Whether a shard migration was in flight when this snapshot was taken
    /// (shard key ranges then overlap transiently; the old shard stays
    /// authoritative until commit).
    pub active_migration: bool,
    /// Bumped on every boundary change; front ends compare it across
    /// snapshots to notice a rebalance without diffing bound vectors.
    pub routing_version: u64,
    /// Checkpoints completed over the engine's lifetime (foreground calls and
    /// the maintenance worker's `checkpoint_interval_ms` ticks alike).
    pub checkpoints: u64,
    /// Logical log bytes dropped by checkpoint-anchored truncation over the
    /// lifetime, across the shard WALs.
    pub truncated_bytes: u64,
    /// Log records scanned by the most recent
    /// [`crate::ShardedPioEngine::recover`] (every shard's WAL analysis pass,
    /// each record once; 0 before any recovery). The bounded-recovery
    /// observable: with checkpointing active it tracks the work done since the
    /// last checkpoint, not the engine's age.
    pub recovery_replayed_records: u64,
    /// Shards whose health breaker is currently open (degraded: writes
    /// rejected with a retryable error until a maintenance probe heals them).
    pub degraded_shards: usize,
    /// Breaker-open events across all shards, lifetime.
    pub breaker_opens: u64,
    /// Breaker-close (probe-healed) events across all shards, lifetime.
    pub breaker_closes: u64,
    /// Sum of all shards' page-checksum counters (read-verify failures and
    /// recoveries, scrub progress and heals).
    pub integrity: IntegrityStats,
    /// Batches resubmitted by the shards' resilient I/O wrappers after
    /// transient failures, summed.
    pub io_retries: u64,
    /// Attempts those wrappers abandoned (retry budget or deadline exhausted),
    /// summed.
    pub io_give_ups: u64,
    /// Maintenance passes that flushed at least one shard.
    pub maintenance_flushes: u64,
    /// Background maintenance passes that failed with an I/O error. A non-zero
    /// value means some shard's flush failed off the foreground path; the batch
    /// stays queued, but partially applied node writes may need WAL recovery.
    pub maintenance_errors: u64,
    /// Message of the most recent background maintenance error, if any.
    pub last_maintenance_error: Option<String>,
}

impl EngineStats {
    /// `total_io_us / scheduled_io_us`: the effective cross-shard I/O overlap
    /// factor (1.0 = fully serialised, `shards` = perfect overlap).
    pub fn overlap_factor(&self) -> f64 {
        if self.scheduled_io_us <= 0.0 {
            return 1.0;
        }
        self.total_io_us / self.scheduled_io_us
    }

    /// Total logical log bytes a full engine recovery would still scan: every
    /// shard's replayable WAL bytes. The quantity checkpoint-anchored
    /// truncation bounds.
    pub fn replayable_log_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.wal_replayable_bytes).sum()
    }

    /// Average point requests per per-shard sub-batch across the engine's
    /// lifetime (`batched_ops / batched_calls`; 0.0 before the first batched
    /// call). A service front end coalescing independent requests should report
    /// an occupancy that matches this engine-level measurement.
    pub fn avg_batch_occupancy(&self) -> f64 {
        if self.batched_calls == 0 {
            return 0.0;
        }
        self.batched_ops as f64 / self.batched_calls as f64
    }

    /// Fraction of descents the resident walk answered whole from the page
    /// class, without inner-node I/O, across all shards
    /// (`rollup.inner_tier_hits / (hits+misses)`; 0.0 before any descent).
    /// The rest met an internal node the pool did not hold and took the
    /// store wavefront.
    pub fn inner_tier_hit_rate(&self) -> f64 {
        let total = self.rollup.inner_tier_hits + self.rollup.inner_tier_misses;
        if total == 0 {
            return 0.0;
        }
        self.rollup.inner_tier_hits as f64 / total as f64
    }

    /// Aggregate scan-resistant leaf-cache hit ratio across shards (point
    /// lookups only — scan-hinted traffic is excluded by construction; 0.0
    /// when the cache is disabled or never probed).
    pub fn leaf_cache_hit_rate(&self) -> f64 {
        self.leaf_cache.hit_ratio()
    }
}

/// The engine's lifetime event counters (everything here only ever grows,
/// except `recovery_replayed_records`, which each recovery overwrites).
#[derive(Default)]
pub(crate) struct EngineCounters {
    /// Epochs committed over the engine's lifetime.
    pub(crate) committed_epochs: AtomicU64,
    /// Single-shard batches committed by a local bracket, without an epoch.
    pub(crate) local_commits: AtomicU64,
    /// Uncommitted epochs discarded on every shard by `recover`.
    pub(crate) discarded_epochs: AtomicU64,
    /// Fan-outs dispatched to the shard workers over the engine's lifetime.
    pub(crate) scheduled_batches: AtomicU64,
    /// Splits (hot shard cut at a median key) completed over the lifetime.
    pub(crate) splits: AtomicU64,
    /// Merges (cold shard emptied into a neighbour) completed over the lifetime.
    pub(crate) merges: AtomicU64,
    /// Entries moved between shards by migrations over the lifetime.
    pub(crate) migrated_keys: AtomicU64,
    /// Committed migrations whose boundary was re-applied by `recover`.
    pub(crate) committed_migrations: AtomicU64,
    /// Checkpoints completed over the engine's lifetime.
    pub(crate) checkpoints: AtomicU64,
    /// Logical log bytes dropped by checkpoint-anchored truncation over the
    /// lifetime (shard WALs).
    pub(crate) truncated_bytes: AtomicU64,
    /// Log records scanned by the most recent `recover` (the shard WAL
    /// analysis passes) — the bounded-recovery observable.
    pub(crate) recovery_replayed_records: AtomicU64,
    /// Maintenance passes that flushed at least one shard.
    pub(crate) maintenance_flushes: AtomicU64,
    /// Background maintenance passes that returned an I/O error.
    pub(crate) maintenance_errors: AtomicU64,
}

impl EngineInner {
    pub(crate) fn stats(&self) -> EngineStats {
        // Snapshot the makespan BEFORE sweeping the shards: work is charged only
        // after its device time has accrued in a shard's counters, so everything in
        // this reading is already contained in the shard sweep that follows — the
        // snapshot preserves `scheduled_io_us <= total_io_us` even while the
        // background worker (or other clients) keep operating mid-sweep.
        let scheduled_io_us = *self.scheduled_us.lock();
        // A brief routing read: bounds for the per-shard key ranges, plus the
        // migration flag. Dropped before the shard sweep so stats never holds
        // routing across tree locks longer than needed.
        let (bounds, active_migration, routing_version) = {
            let routing = self.routing.read();
            (routing.bounds.clone(), routing.migration.is_some(), routing.version)
        };
        let shards: Vec<ShardSnapshot> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let (key_lo, key_hi) = shard_range(&bounds, i, self.shards.len());
                shard.snapshot(i, key_lo, key_hi)
            })
            .collect();
        let mut rollup = PioStats::default();
        let mut pool_total = CacheStats::default();
        let mut leaf_cache = CacheStats::default();
        let mut integrity = IntegrityStats::default();
        for snap in &shards {
            rollup.merge(&snap.pio);
            pool_total.merge(&snap.pool);
            leaf_cache.merge(&snap.leaf_cache);
            integrity.merge(&snap.integrity);
        }
        EngineStats {
            topology: self.topology.name(),
            rollup,
            total_io_us: shards.iter().map(|s| s.io_elapsed_us).sum(),
            scheduled_io_us,
            scheduled_batches: self.counters.scheduled_batches.load(Ordering::Relaxed),
            batched_calls: shards.iter().map(|s| s.batched_calls).sum(),
            batched_ops: shards.iter().map(|s| s.batched_ops).sum(),
            pipeline_depth: shards.iter().map(|s| s.pipeline_depth).max().unwrap_or(0),
            pool_hit_ratio: pool_total.hit_ratio(),
            leaf_cache,
            queued_ops: shards.iter().map(|s| s.opq_len).sum(),
            committed_epochs: self.counters.committed_epochs.load(Ordering::Relaxed),
            local_commits: self.counters.local_commits.load(Ordering::Relaxed),
            discarded_epochs: self.counters.discarded_epochs.load(Ordering::Relaxed),
            splits: self.counters.splits.load(Ordering::Relaxed),
            merges: self.counters.merges.load(Ordering::Relaxed),
            migrated_keys: self.counters.migrated_keys.load(Ordering::Relaxed),
            committed_migrations: self.counters.committed_migrations.load(Ordering::Relaxed),
            active_migration,
            routing_version,
            checkpoints: self.counters.checkpoints.load(Ordering::Relaxed),
            truncated_bytes: self.counters.truncated_bytes.load(Ordering::Relaxed),
            recovery_replayed_records: self.counters.recovery_replayed_records.load(Ordering::Relaxed),
            degraded_shards: shards.iter().filter(|s| s.degraded).count(),
            breaker_opens: shards.iter().map(|s| s.breaker_opens).sum(),
            breaker_closes: shards.iter().map(|s| s.breaker_closes).sum(),
            integrity,
            io_retries: shards.iter().map(|s| s.io_retries).sum(),
            io_give_ups: shards.iter().map(|s| s.io_give_ups).sum(),
            maintenance_flushes: self.counters.maintenance_flushes.load(Ordering::Relaxed),
            maintenance_errors: self.counters.maintenance_errors.load(Ordering::Relaxed),
            last_maintenance_error: self.last_maintenance_error.lock().clone(),
            shards,
        }
    }
}
