//! The sharded PIO engine: key-range partitioning and the cross-shard parallel
//! request scheduler.
//!
//! ## Partitioning
//!
//! The key space is cut into `N` contiguous ranges by `N − 1` boundary keys (the
//! `routing` module); every shard is a complete [`PioBTree`] with its own store,
//! operation queue and (optional) WAL (the `shard` module).
//!
//! ## Scheduling
//!
//! Batch entry points (`multi_search`, `insert_batch`, `range_search`,
//! `checkpoint`, `maintain_once`) split their work by shard and hand each piece
//! straight to the **worker thread that owns that shard's execution** (one
//! long-lived thread per shard, the `scheduler` module), then wait for exactly
//! the replies they are owed. Batched calls spawn **zero** threads and cross one
//! thread boundary each way — or none: a `multi_search`, `insert_batch` or
//! `range_search` that one shard owns runs on its caller's thread, like a
//! single-key call (`EngineInner::run_leg`). Because the stores simulate time
//! rather than sleep, cross-shard overlap is accounted explicitly: once a call
//! has reaped its last reply, it adds the **maximum** of the participating
//! shards' simulated I/O deltas to the schedule makespan
//! ([`crate::EngineStats::scheduled_io_us`]), while the sum of all deltas
//! remains visible as `total_io_us`. The ratio of the two is the measured
//! overlap win. Results are always collected by shard index — never by
//! completion order — so fan-outs are deterministic.
//!
//! This file holds the engine handle, its shared state and the read and
//! single-key request paths. The rest is carved by protocol: `commit` (epoch
//! open/decide and the batched insert), `migrate` (the migration executor),
//! `maintenance` (flush pass, probe, scrub, checkpoint and truncation),
//! `recovery`, `stats`, and assembly in `builder`.

use crate::builder::EngineBuilder;
use crate::commit::EpochCoordinator;
use crate::config::EngineConfig;
use crate::maintenance::{DirtyState, MaintenanceWorker};
use crate::recovery::EngineRecoveryReport;
use crate::routing::{shard_of, shard_range, sole_owner, RoutingState};
use crate::scheduler::WorkerPool;
use crate::shard::{Shard, ShardHealth};
use crate::stats::{EngineCounters, EngineStats};
use crate::topology::{EngineManifest, ShardProvisioner};
use btree::{Key, Value};
use parking_lot::{Mutex, RwLock};
use pio::IoResult;
use pio_btree::{OpEntry, PioBTree};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub use crate::routing::boundaries_from_sample;

/// Shared state between the engine handle and the background maintenance
/// worker.
pub(crate) struct EngineInner {
    /// The shard worker threads. Declared first so it drops first: the workers
    /// drain their queues and are joined before anything they touch goes away.
    pub(crate) pool: WorkerPool,
    /// The shards, in key order; each is shared with its worker thread.
    pub(crate) shards: Vec<Arc<Shard>>,
    /// The live routing table (bounds + in-flight migration); see
    /// [`RoutingState`] for the locking discipline.
    pub(crate) routing: RwLock<RoutingState>,
    pub(crate) config: EngineConfig,
    /// The storage topology the shards were provisioned on (manifest persistence
    /// for durable topologies; no-ops for the simulated ones).
    pub(crate) topology: Box<dyn ShardProvisioner>,
    /// The last manifest snapshot handed to the topology, so
    /// [`EngineInner::sync_manifest`] only persists actual changes.
    pub(crate) manifest: Mutex<Option<EngineManifest>>,
    /// Dirty-marker state: whether the topology's durable marker is raised,
    /// plus the counters that let a checkpoint prove no mutation raced its
    /// clear (see [`EngineInner::begin_mutation`] and
    /// [`EngineInner::checkpoint`]).
    pub(crate) dirty: Mutex<DirtyState>,
    /// Cross-shard batch-atomicity coordinator (`None` without WALs).
    pub(crate) epoch: Option<EpochCoordinator>,
    /// Lifetime event counters, read by `stats()`.
    pub(crate) counters: EngineCounters,
    /// Accumulated schedule makespan in µs (see the module docs).
    pub(crate) scheduled_us: Mutex<f64>,
    /// The rebalance monitor's per-shard `routed_total` baseline: the window a
    /// policy decision sees is the delta since the previous decision.
    pub(crate) rebalance_baseline: Mutex<Vec<u64>>,
    /// Message of the most recent background maintenance error.
    pub(crate) last_maintenance_error: Mutex<Option<String>>,
}

/// A key-range-sharded PIO B-tree engine with a cross-shard parallel scheduler.
///
/// All operations take `&self`; per-shard trees are behind their own mutexes, so
/// client threads operating on different shards proceed concurrently (one tree
/// behind one lock would serialise every call).
/// Batched calls that span shards are dispatched straight to a persistent pool
/// of one worker thread per shard — no threads are spawned per call; a batched
/// call one shard owns runs on its caller's thread.
pub struct ShardedPioEngine {
    // Field order is drop order: the maintenance worker stops first (it issues
    // fan-outs), then the shared state — whose first field is the worker pool.
    pub(crate) worker: Option<MaintenanceWorker>,
    pub(crate) inner: Arc<EngineInner>,
}

impl std::fmt::Debug for ShardedPioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPioEngine")
            .field("shards", &self.inner.shards.len())
            .field("bounds", &self.inner.routing.read().bounds)
            .field("shard_workers", &self.inner.pool.workers())
            .field("background_maintenance", &self.worker.is_some())
            .finish()
    }
}

impl ShardedPioEngine {
    // ------------------------------------------------------------------ creation --

    /// Creates an empty engine on the default [`crate::DevicePerShard`] topology.
    /// `key_sample` guides the shard boundaries (pass the expected key
    /// population, or `&[]` for uniform cuts of the full `u64` space). Thin
    /// delegation to [`EngineBuilder`]; use the builder directly to choose a
    /// topology.
    pub fn create(config: EngineConfig, key_sample: &[Key]) -> IoResult<Self> {
        EngineBuilder::new(config).key_sample(key_sample).build()
    }

    /// Bulk loads `entries` (sorted, duplicate-free) into a fresh engine on the
    /// default [`crate::DevicePerShard`] topology, using the entry keys
    /// themselves as the boundary sample (read in place — no key copy). Thin
    /// delegation to [`EngineBuilder`]; use the builder directly to choose a
    /// topology.
    pub fn bulk_load(config: EngineConfig, entries: &[(Key, Value)]) -> IoResult<Self> {
        EngineBuilder::new(config).entries(entries).build()
    }

    // ------------------------------------------------------------------ accessors --

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The boundary keys separating the shards (length `shards − 1`), a
    /// snapshot of the live routing table. Non-decreasing; two equal adjacent
    /// bounds denote a shard merged away to an empty range.
    pub fn boundaries(&self) -> Vec<Key> {
        self.inner.routing.read().bounds.clone()
    }

    /// Bumped on every boundary change: lets callers detect that a rebalance
    /// happened between two observations without comparing bound vectors.
    pub fn routing_version(&self) -> u64 {
        self.inner.routing.read().version
    }

    /// The shard index that owns `key` under the current boundaries. Advisory
    /// for concurrent callers: a rebalance may move the boundary right after
    /// this returns, so use it for placement hints (e.g. batch binning), not
    /// correctness — the engine's own entry points re-route internally.
    pub fn shard_for(&self, key: Key) -> usize {
        shard_of(&self.inner.routing.read().bounds, key)
    }

    /// A handle to the engine's shared state, for the sibling `rebalance`
    /// module's engine-level entry points.
    pub(crate) fn inner(&self) -> &Arc<EngineInner> {
        &self.inner
    }

    /// Whether a background maintenance worker is running.
    pub fn has_background_maintenance(&self) -> bool {
        self.worker.is_some()
    }

    // ----------------------------------------------------------------- operations --

    /// Point search, routed to the owning shard.
    pub fn search(&self, key: Key) -> IoResult<Option<Value>> {
        self.inner.single(key, |tree| tree.search(key))
    }

    /// Insert, routed to the owning shard.
    pub fn insert(&self, key: Key, value: Value) -> IoResult<()> {
        self.inner.single_write(OpEntry::insert(key, value))
    }

    /// Delete, routed to the owning shard.
    pub fn delete(&self, key: Key) -> IoResult<()> {
        self.inner.single_write(OpEntry::delete(key))
    }

    /// Update, routed to the owning shard.
    pub fn update(&self, key: Key, value: Value) -> IoResult<()> {
        self.inner.single_write(OpEntry::update(key, value))
    }

    /// MPSearch across shards: the batch is split by owning shard and every
    /// sub-batch runs as a concurrent MPSearch on its shard (a batch one shard
    /// owns, on the calling thread). Results are returned in the order of `keys`.
    pub fn multi_search(&self, keys: &[Key]) -> IoResult<Vec<Option<Value>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // Pin the routing table across routing AND the search: a migration's
        // boundary swap must not land between the two.
        let routing = self.inner.routing.read();
        // A batch one shard owns is searched where it lies, on this thread.
        if let Some(owner) = sole_owner(&routing.bounds, keys.iter().copied()) {
            self.inner.shards[owner].note_batch(keys.len());
            return self.inner.run_leg(owner, |tree| tree.multi_search(keys));
        }
        // Partition the batch by owning shard. What crosses to a worker is
        // allocated — the key sub-batch moved into its task, the verdicts
        // coming back — and nothing else: the scatter below re-derives each
        // key's shard from the routing table it still holds.
        let shards = self.inner.shards.len();
        let mut sizes = vec![0usize; shards];
        for &key in keys {
            sizes[shard_of(&routing.bounds, key)] += 1;
        }
        let mut parts: Vec<Vec<Key>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for &key in keys {
            parts[shard_of(&routing.bounds, key)].push(key);
        }
        let work = parts
            .into_iter()
            .enumerate()
            .filter(|(_, sub)| !sub.is_empty())
            .map(|(i, sub)| {
                self.inner.shards[i].note_batch(sub.len());
                (i, move |tree: &mut PioBTree| tree.multi_search(&sub))
            })
            .collect();
        // Each shard's verdicts are in the order its keys were pushed, which is
        // caller order: walk the keys again and take from the owner's.
        let mut verdicts: Vec<std::vec::IntoIter<Option<Value>>> =
            (0..shards).map(|_| Vec::new().into_iter()).collect();
        for (shard, sub_results) in self.inner.fan_out_tasks(work)? {
            verdicts[shard] = sub_results.into_iter();
        }
        let out = keys
            .iter()
            .map(|&key| {
                verdicts[shard_of(&routing.bounds, key)]
                    .next()
                    .expect("one verdict per routed key")
            })
            .collect();
        Ok(out)
    }

    /// Batched insert: entries are split by owning shard and applied concurrently,
    /// preserving per-shard arrival order.
    pub fn insert_batch(&self, entries: &[(Key, Value)]) -> IoResult<()> {
        self.inner.insert_batch(entries)
    }

    /// Range search over `[lo, hi)`: every intersecting shard scans its clamped
    /// sub-range concurrently and the per-shard results (each sorted) are stitched
    /// together in shard order, which *is* key order.
    pub fn range_search(&self, lo: Key, hi: Key) -> IoResult<Vec<(Key, Value)>> {
        if lo >= hi {
            return Ok(Vec::new());
        }
        // Pin the routing table across the fan-out (see `multi_search`).
        let routing = self.inner.routing.read();
        // A range inside one shard is scanned on this thread.
        if let Some(owner) = sole_owner(&routing.bounds, [lo, hi - 1].into_iter()) {
            return self.inner.run_leg(owner, |tree| tree.range_search(lo, hi));
        }
        let shard_count = self.inner.shards.len();
        let work = (0..shard_count)
            .filter_map(|i| {
                let (s_lo, s_hi) = shard_range(&routing.bounds, i, shard_count);
                (s_lo < hi && lo < s_hi).then(|| {
                    let (sub_lo, sub_hi) = (lo.max(s_lo), hi.min(s_hi));
                    (i, move |tree: &mut PioBTree| tree.range_search(sub_lo, sub_hi))
                })
            })
            .collect();
        // Results arrive sorted by shard index, and shard order is key order:
        // concatenation keeps the result sorted.
        let results = self.inner.fan_out_tasks(work)?;
        drop(routing);
        let mut out = Vec::new();
        for (_, mut part) in results {
            out.append(&mut part);
        }
        Ok(out)
    }

    /// Incremental checkpoint: drains the OPQ of every shard that changed since
    /// its last checkpoint (dirty shards in parallel, clean shards untouched),
    /// persists the manifest, and then truncates the shard WALs up to the
    /// checkpoint — bounding both on-disk log size and the work the next
    /// [`ShardedPioEngine::recover`] must do. Truncation never drops an
    /// undecided epoch's records, nor a commit record another shard's
    /// surviving bracket still needs. The background maintenance worker
    /// calls this on the [`crate::EngineConfig::checkpoint_interval_ms`]
    /// cadence.
    pub fn checkpoint(&self) -> IoResult<()> {
        self.inner.checkpoint()
    }

    /// One maintenance pass: every shard whose OPQ fill is at or above the
    /// configured threshold is drained below it (in parallel). Returns the number
    /// of shards flushed. The background worker calls exactly this. Degraded
    /// shards get a healing probe first and are excluded from the flush.
    pub fn maintain_once(&self) -> IoResult<usize> {
        self.inner.maintain_once()
    }

    /// One checksum-scrub pass: every healthy shard re-reads and verifies up
    /// to `max_pages_per_shard` of its checksummed pages, healing rot from
    /// clean pooled copies where possible. Returns the total pages scanned.
    /// The background worker drives this on the
    /// [`EngineConfig::scrub_interval_ms`] cadence; call it directly in
    /// deterministic (no-worker) setups.
    pub fn scrub_once(&self, max_pages_per_shard: usize) -> IoResult<usize> {
        self.inner.scrub_tick(max_pages_per_shard)
    }

    /// Simulates a crash of the whole engine: every shard loses its OPQ, buffer
    /// pool, LSMap and un-forced WAL records. Returns the total number of OPQ
    /// entries lost. Call [`ShardedPioEngine::recover`] afterwards.
    pub fn simulate_crash(&self) -> usize {
        self.inner.shards.iter().map(|s| s.tree.lock().simulate_crash()).sum()
    }

    /// Engine-level restart recovery. First every shard WAL is scanned for the
    /// epochs' commit records: an epoch whose `EpochCommit` (or
    /// `MigrateCommit`) survives in some shard's log is **committed** (normal
    /// replay, and a migration's boundary is re-applied); any other epoch with
    /// a surviving bracket is **discarded** on *every* shard (presumed abort).
    /// Then each shard replays its own WAL through [`PioBTree::recover_with`]
    /// under those verdicts — so after this returns, every cross-shard batch is
    /// either fully present or fully absent (crash matrix in the crate docs).
    pub fn recover(&self) -> IoResult<EngineRecoveryReport> {
        self.inner.recover()
    }

    /// Counts live entries across all shards (expensive; for tests and examples).
    pub fn count_entries(&self) -> IoResult<u64> {
        let mut total: u64 = self.inner.fan_out_all(|tree| tree.count_entries())?.into_iter().sum();
        // The underlying half-open range scan cannot see `Key::MAX` itself, so the
        // sentinel key is counted with a point lookup in its owning (last) shard —
        // with its I/O charged to the schedule like any other lookup.
        if self.inner.single(Key::MAX, |tree| tree.search(Key::MAX))?.is_some() {
            total += 1;
        }
        Ok(total)
    }

    /// Verifies per-shard structural invariants plus the engine-level invariant
    /// that every shard only holds keys inside its range. Returns the live entry
    /// count. Intended for tests.
    pub fn check_invariants(&self) -> IoResult<u64> {
        let mut total = 0;
        let shard_count = self.inner.shards.len();
        let last_shard = shard_count - 1;
        // Pin the routing table for the whole sweep (and skip the containment
        // assertions while a migration is mid-copy — the destination legally
        // holds out-of-range keys until the commit swaps the boundary).
        let routing = self.inner.routing.read();
        let mid_migration = routing.migration.is_some();
        // Conceptually a fan over all shards: charge the schedule the slowest
        // shard's verification I/O, like fan_out does.
        let mut makespan_us = 0.0f64;
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let (lo, hi) = shard_range(&routing.bounds, i, shard_count);
            let (entries, io_delta_us) = shard.run(|tree| -> IoResult<u64> {
                let entries = tree.check_invariants()?;
                if !mid_migration {
                    let in_range = tree.range_search(lo, hi)?.len() as u64;
                    let everywhere = tree.range_search(0, Key::MAX)?.len() as u64;
                    assert_eq!(in_range, everywhere, "shard {i} holds keys outside [{lo}, {hi})");
                    // Half-open scans are blind to `Key::MAX`: check the sentinel
                    // key's placement with a point lookup (only the last shard may
                    // hold it).
                    if i != last_shard {
                        assert!(
                            tree.search(Key::MAX)?.is_none(),
                            "shard {i} holds Key::MAX outside [{lo}, {hi})"
                        );
                    }
                }
                Ok(entries)
            });
            total += entries?;
            makespan_us = makespan_us.max(io_delta_us);
        }
        drop(routing);
        self.inner.charge(makespan_us);
        Ok(total)
    }

    /// Aggregated engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    /// Schedule makespan so far, µs (see [`EngineStats::scheduled_io_us`]).
    pub fn scheduled_io_us(&self) -> f64 {
        *self.inner.scheduled_us.lock()
    }

    /// Total device work so far across all shards, µs.
    pub fn total_io_us(&self) -> f64 {
        self.inner.shards.iter().map(|s| s.tree.lock().io_elapsed_us()).sum()
    }
}

impl EngineInner {
    /// Runs a read-only `op` on the shard owning `key`, holding the routing
    /// read lock for the whole operation (so a migration's boundary swap
    /// drains it first) and charging its full I/O delta to the schedule (a
    /// single-shard call has nothing to overlap with).
    fn single<R>(&self, key: Key, op: impl FnOnce(&mut PioBTree) -> IoResult<R>) -> IoResult<R> {
        let routing = self.routing.read();
        let shard = &self.shards[shard_of(&routing.bounds, key)];
        shard.note_routed(1);
        // Reads are attempted even on a degraded shard: the store's caches
        // answer without touching the sick device.
        let result = self.on_shard(shard, op);
        shard.health.observe(&result);
        result
    }

    /// Applies one write to the shard owning `entry.key`. Holds the routing
    /// read lock for the whole operation, and — when the key falls in an
    /// active migration's captured range — mirrors the entry into the
    /// migration's dirty log *under the tree lock*, so the dirty log's order
    /// matches the order writes actually applied in.
    fn single_write(&self, entry: OpEntry) -> IoResult<()> {
        let _mutation = self.begin_mutation()?;
        let routing = self.routing.read();
        let idx = shard_of(&routing.bounds, entry.key);
        let shard = &self.shards[idx];
        shard.note_routed(1);
        // A degraded shard rejects writes up front: queueing more work onto a
        // sick device only grows the backlog that has to replay once it heals,
        // and the rejection is retryable — callers back off and resubmit.
        if shard.health.is_open() {
            return Err(ShardHealth::rejection(idx));
        }
        let mirror = routing
            .migration
            .as_ref()
            .filter(|m| idx == m.src && entry.key >= m.lo && entry.key < m.hi);
        let result = self.on_shard(shard, |tree| {
            if let Some(migration) = mirror {
                // Mirrored even if the apply then errors: an errored write is
                // undecided, and replaying it on the destination errs on the side
                // of never losing an acked write.
                migration.dirty.lock().push(entry);
            }
            let result = tree.apply(&[entry], None).map(|_| ());
            shard.note_queue_peak(tree);
            result
        });
        shard.health.observe(&result);
        result
    }

    pub(crate) fn charge(&self, makespan_us: f64) {
        if makespan_us > 0.0 {
            *self.scheduled_us.lock() += makespan_us;
        }
    }

    /// Runs `op` on `shard` inline, on the calling thread ([`Shard::run`]), and
    /// charges its full I/O delta to the schedule — whatever `op` returns. For
    /// single-key calls, batched calls one shard owns ([`EngineInner::run_leg`])
    /// and the maintenance and migration steps, which touch one shard at a time.
    pub(crate) fn on_shard<R>(&self, shard: &Shard, op: impl FnOnce(&mut PioBTree) -> R) -> R {
        let (out, io_delta_us) = shard.run(op);
        self.charge(io_delta_us);
        out
    }

    /// Runs `task`, the one leg of a batched call that shard `shard` owns whole,
    /// on the calling thread — the route single-key calls take — under the
    /// contract of a worker's leg ([`EngineInner::fan_out_tasks`]): a panic is
    /// caught inside the tree lock, so the lock is released and the I/O done so
    /// far is charged, and re-raised once the call is counted; any other
    /// outcome feeds the shard's breaker.
    pub(crate) fn run_leg<T>(&self, shard: usize, task: impl FnOnce(&mut PioBTree) -> IoResult<T>) -> IoResult<T> {
        let shard = &self.shards[shard];
        let outcome = self.on_shard(shard, |tree| catch_unwind(AssertUnwindSafe(|| task(tree))));
        self.counters.scheduled_batches.fetch_add(1, Ordering::Relaxed);
        let result = outcome.unwrap_or_else(|panic| resume_unwind(panic));
        shard.health.observe(&result);
        result
    }

    /// Fans an operation out to *every* shard's worker and returns the results
    /// in shard order.
    pub(crate) fn fan_out_all<T: Send + 'static>(
        &self,
        op: impl Fn(&mut PioBTree) -> IoResult<T> + Clone + Send + 'static,
    ) -> IoResult<Vec<T>> {
        let work = (0..self.shards.len()).map(|i| (i, op.clone())).collect();
        Ok(self.fan_out_tasks(work)?.into_iter().map(|(_, out)| out).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pio_btree::PioConfig;
    use ssd_sim::DeviceProfile;

    fn small_config(shards: usize) -> EngineConfig {
        EngineConfig::builder()
            .shards(shards)
            .profile(DeviceProfile::F120)
            .shard_capacity_bytes(1 << 30)
            .base(
                PioConfig::builder()
                    .page_size(2048)
                    .leaf_segments(2)
                    .opq_pages(1) // one OPQ page per shard
                    .pio_max(16)
                    .speriod(50)
                    .bcnt(100)
                    .pool_pages(256)
                    .build(),
            )
            .build()
    }

    #[test]
    fn boundaries_cut_quantiles_of_the_sample() {
        let sample: Vec<Key> = (0..1000u64).collect();
        let bounds = boundaries_from_sample(&sample, 4);
        assert_eq!(bounds.len(), 3);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(bounds[0] >= 200 && bounds[0] <= 300, "{bounds:?}");
        assert!(bounds[1] >= 450 && bounds[1] <= 550, "{bounds:?}");
    }

    #[test]
    fn boundaries_fall_back_to_uniform_cuts() {
        let bounds = boundaries_from_sample(&[], 4);
        assert_eq!(bounds.len(), 3);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        // Roughly uniform over u64.
        assert!(bounds[0] > Key::MAX / 8 && bounds[0] < Key::MAX / 2);
        // A tiny sample still yields a full set of cuts.
        let bounds = boundaries_from_sample(&[10], 4);
        assert_eq!(bounds.len(), 3);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn shard_for_routes_by_boundaries() {
        let engine = ShardedPioEngine::create(small_config(4), &(0..4000u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(engine.shard_count(), 4);
        let bounds = engine.boundaries().to_vec();
        assert_eq!(engine.shard_for(0), 0);
        assert_eq!(engine.shard_for(bounds[0] - 1), 0);
        assert_eq!(engine.shard_for(bounds[0]), 1);
        assert_eq!(engine.shard_for(bounds[2]), 3);
        assert_eq!(engine.shard_for(Key::MAX), 3);
    }

    #[test]
    fn operations_round_trip_across_shards() {
        let engine = ShardedPioEngine::create(small_config(4), &(0..10_000u64).collect::<Vec<_>>()).unwrap();
        for k in 0..2_000u64 {
            engine.insert(k * 5, k).unwrap();
        }
        engine.checkpoint().unwrap();
        assert_eq!(engine.search(500).unwrap(), Some(100));
        assert_eq!(engine.search(501).unwrap(), None);
        engine.delete(500).unwrap();
        engine.update(505, 999).unwrap();
        assert_eq!(engine.search(500).unwrap(), None);
        assert_eq!(engine.search(505).unwrap(), Some(999));
        assert_eq!(engine.count_entries().unwrap(), 1_999);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_partitions_entries() {
        let entries: Vec<(Key, Value)> = (0..20_000u64).map(|k| (k * 2, k)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(4), &entries).unwrap();
        assert_eq!(engine.count_entries().unwrap(), 20_000);
        let stats = engine.stats();
        // Quantile boundaries must spread the load roughly evenly.
        for snap in &stats.shards {
            let mine = entries
                .iter()
                .filter(|&&(k, _)| k >= snap.key_lo && k < snap.key_hi)
                .count();
            assert!(
                (3_000..=7_000).contains(&mine),
                "shard {} holds {} entries",
                snap.shard,
                mine
            );
        }
        assert_eq!(engine.search(10_000).unwrap(), Some(5_000));
        engine.check_invariants().unwrap();
    }

    #[test]
    fn multi_search_preserves_caller_order() {
        let entries: Vec<(Key, Value)> = (0..8_000u64).map(|k| (k * 3, k)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(4), &entries).unwrap();
        let keys: Vec<Key> = (0..500u64).map(|i| (i * 7919) % 30_000).collect();
        let got = engine.multi_search(&keys).unwrap();
        for (k, verdict) in keys.iter().zip(&got) {
            let expected = if k % 3 == 0 && *k < 24_000 { Some(k / 3) } else { None };
            assert_eq!(*verdict, expected, "key {k}");
        }
    }

    #[test]
    fn range_search_stitches_across_shard_boundaries() {
        let entries: Vec<(Key, Value)> = (0..10_000u64).map(|k| (k, k * 10)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(4), &entries).unwrap();
        let bounds = engine.boundaries().to_vec();
        // A range straddling the middle boundary.
        let lo = bounds[1] - 100;
        let hi = bounds[1] + 100;
        let out = engine.range_search(lo, hi).unwrap();
        assert_eq!(out.len(), 200);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "must be sorted");
        assert_eq!(out.first().unwrap().0, lo);
        assert_eq!(out.last().unwrap().0, hi - 1);
        // Full scan equals the population.
        assert_eq!(engine.range_search(0, Key::MAX).unwrap().len(), 10_000);
    }

    #[test]
    fn insert_batch_fans_out_and_preserves_data() {
        let engine = ShardedPioEngine::create(small_config(4), &(0..40_000u64).collect::<Vec<_>>()).unwrap();
        let batch: Vec<(Key, Value)> = (0..5_000u64).map(|i| ((i * 2_654_435_761) % 40_000, i)).collect();
        engine.insert_batch(&batch).unwrap();
        engine.checkpoint().unwrap();
        // Last write wins per key: build the model the same way.
        let mut model = std::collections::BTreeMap::new();
        for &(k, v) in &batch {
            model.insert(k, v);
        }
        for (&k, &v) in model.iter().step_by(97) {
            assert_eq!(engine.search(k).unwrap(), Some(v), "key {k}");
        }
        assert_eq!(engine.count_entries().unwrap(), model.len() as u64);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn batch_occupancy_counters_track_sub_batches() {
        let entries: Vec<(Key, Value)> = (0..8_000u64).map(|k| (k, k)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(4), &entries).unwrap();
        assert_eq!(engine.stats().batched_calls, 0, "bulk load is not a batched call");

        // 64 keys spread across the full space: every shard gets a sub-batch.
        let keys: Vec<Key> = (0..64u64).map(|i| i * 125).collect();
        engine.multi_search(&keys).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.batched_ops, 64, "every key lands in exactly one sub-batch");
        assert_eq!(stats.batched_calls, 4, "one sub-batch per participating shard");
        assert!((stats.avg_batch_occupancy() - 16.0).abs() < 1e-9);
        for snap in &stats.shards {
            assert_eq!(snap.batched_calls, 1, "shard {}", snap.shard);
            assert!(snap.batched_ops > 0, "shard {}", snap.shard);
        }

        // A batched insert confined to one shard lands on exactly one counter.
        let batch: Vec<(Key, Value)> = (0..10u64).map(|i| (i, i)).collect();
        engine.insert_batch(&batch).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.batched_ops, 74);
        assert_eq!(stats.batched_calls, 5);
        assert_eq!(stats.shards[0].batched_calls, 2, "the insert hit only shard 0");
        // Single-key operations and range scans are not point sub-batches.
        engine.search(1).unwrap();
        engine.range_search(0, 1_000).unwrap();
        assert_eq!(engine.stats().batched_calls, 5);
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut config = small_config(2);
        config.max_batch_size = 0;
        let err = ShardedPioEngine::create(config, &[]).unwrap_err();
        assert!(err.to_string().contains("max_batch_size"), "{err}");
    }

    #[test]
    fn maintenance_drains_full_opqs() {
        let engine = ShardedPioEngine::create(small_config(2), &(0..1_000u64).collect::<Vec<_>>()).unwrap();
        // Past half of shard 0's OPQ, short of filling it (no foreground flush).
        let capacity = engine.stats().shards[0].opq_capacity as u64;
        for k in 0..capacity * 3 / 4 {
            engine.insert(k * 7 % 500, k).unwrap();
        }
        let queued_before = engine.stats().queued_ops;
        assert!(queued_before > 0);
        let flushed = engine.maintain_once().unwrap();
        assert!(flushed >= 1, "at least one shard must flush");
        let stats = engine.stats();
        assert!(stats.queued_ops < queued_before);
        assert_eq!(stats.maintenance_flushes, 1);
        // Below threshold now: a second pass is a no-op.
        assert_eq!(engine.maintain_once().unwrap(), 0);
    }

    #[test]
    fn background_worker_flushes_without_explicit_calls() {
        let mut config = small_config(2);
        config.maintenance_interval_ms = Some(1);
        let engine = ShardedPioEngine::create(config, &(0..1_000u64).collect::<Vec<_>>()).unwrap();
        assert!(engine.has_background_maintenance());
        // Fewer entries than one OPQ holds, so no foreground insert can fill a
        // queue and flush it: whatever drains the queues is the worker.
        // Every insert lands in shard 0, past half of its queue.
        let capacity = engine.stats().shards[0].opq_capacity;
        let floor = capacity.div_ceil(2);
        for k in 0..capacity as u64 - 1 {
            engine.insert(k * 7 % 500, k).unwrap();
        }
        // Wait (bounded) for the worker to bring every queue below its floor
        // and to have counted the pass that did it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let stats = loop {
            let stats = engine.stats();
            let fullest = stats.shards.iter().map(|s| s.opq_len).max().unwrap();
            let drained = fullest < floor && stats.maintenance_flushes >= 1;
            if drained || std::time::Instant::now() > deadline {
                assert!(
                    drained,
                    "worker should have drained every OPQ below {floor}, {fullest} left"
                );
                break stats;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        assert_eq!(stats.maintenance_errors, 0);
        assert!(stats.last_maintenance_error.is_none());
    }

    fn wal_config(shards: usize) -> EngineConfig {
        let mut config = small_config(shards);
        config.base.wal_enabled = true;
        config
    }

    #[test]
    fn committed_batches_survive_an_engine_crash() {
        let engine = ShardedPioEngine::create(wal_config(3), &(0..9_000u64).collect::<Vec<_>>()).unwrap();
        let batch: Vec<(Key, Value)> = (0..90u64).map(|k| (k * 100, k + 1)).collect();
        engine.insert_batch(&batch).unwrap();
        assert_eq!(engine.stats().committed_epochs, 1, "one epoch per batched insert");

        let lost = engine.simulate_crash();
        assert!(lost >= batch.len(), "the queued batch is lost with the OPQs");
        let report = engine.recover().unwrap();
        assert_eq!(report.committed_epochs, 1);
        assert_eq!(report.discarded_epochs, 0);
        assert!(report.redone() >= batch.len(), "every entry re-drives through the WALs");

        engine.checkpoint().unwrap();
        for &(k, v) in &batch {
            assert_eq!(engine.search(k).unwrap(), Some(v), "key {k}");
        }
        engine.check_invariants().unwrap();
    }

    #[test]
    fn epoch_ids_stay_unique_across_restarts() {
        let engine = ShardedPioEngine::create(wal_config(2), &(0..1_000u64).collect::<Vec<_>>()).unwrap();
        for round in 0..3u64 {
            // Spans both shards: a batch one shard holds alone takes no epoch.
            let batch: Vec<(Key, Value)> = (0..20u64).map(|k| (k * 50 + round, round)).collect();
            engine.insert_batch(&batch).unwrap();
            engine.simulate_crash();
            let report = engine.recover().unwrap();
            assert_eq!(report.discarded_epochs, 0, "round {round}");
            assert_eq!(report.committed_epochs, round + 1, "epochs accumulate in the log");
        }
        engine.checkpoint().unwrap();
        engine.check_invariants().unwrap();
    }

    #[test]
    fn recovery_without_wals_is_a_noop() {
        let engine = ShardedPioEngine::create(small_config(2), &(0..100u64).collect::<Vec<_>>()).unwrap();
        engine.insert_batch(&[(1, 1), (99, 2)]).unwrap();
        engine.simulate_crash();
        let report = engine.recover().unwrap();
        assert_eq!(report.redone(), 0, "nothing to replay without WALs");
        assert_eq!(engine.search(1).unwrap(), None, "unlogged queued entries are gone");
        assert_eq!(engine.stats().committed_epochs, 0);
    }

    #[test]
    fn scheduled_io_is_at_most_total_io() {
        let entries: Vec<(Key, Value)> = (0..20_000u64).map(|k| (k, k)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(4), &entries).unwrap();
        let keys: Vec<Key> = (0..256u64).map(|i| i * 73 % 20_000).collect();
        engine.multi_search(&keys).unwrap();
        let stats = engine.stats();
        assert!(stats.scheduled_io_us > 0.0);
        assert!(
            stats.scheduled_io_us <= stats.total_io_us + 1e-9,
            "makespan {} must not exceed device work {}",
            stats.scheduled_io_us,
            stats.total_io_us
        );
        assert!(stats.overlap_factor() >= 1.0);
    }

    #[test]
    fn one_shard_schedule_equals_device_work() {
        // With a single shard there is nothing to overlap, so the lifetime
        // makespan (including the bulk load) must equal the device work exactly.
        let entries: Vec<(Key, Value)> = (0..10_000u64).map(|k| (k, k)).collect();
        let engine = ShardedPioEngine::bulk_load(small_config(1), &entries).unwrap();
        for k in 0..500u64 {
            engine.insert(k * 3, k).unwrap();
        }
        engine.checkpoint().unwrap();
        engine.multi_search(&(0..64u64).collect::<Vec<_>>()).unwrap();
        // The diagnostic paths must also keep the schedule in lockstep.
        engine.count_entries().unwrap();
        engine.check_invariants().unwrap();
        let stats = engine.stats();
        assert!(stats.total_io_us > 0.0);
        assert!(
            (stats.scheduled_io_us - stats.total_io_us).abs() < 1e-6,
            "1 shard: makespan {} must equal device work {}",
            stats.scheduled_io_us,
            stats.total_io_us
        );
        assert!((stats.overlap_factor() - 1.0).abs() < 1e-9);
    }
}
