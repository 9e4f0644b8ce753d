//! The sharded PIO engine: key-range partitioning and the cross-shard request
//! fan-out.
//!
//! ## Partitioning
//!
//! The key space is cut into `N` contiguous ranges by `N − 1` boundary keys (the
//! `routing` module); every shard is a complete [`PioBTree`] with its own store,
//! operation queue and (optional) WAL (the `shard` module).
//!
//! ## Scheduling
//!
//! Every call runs on its caller's thread. Batch entry points
//! (`multi_search`, `insert_batch`, `range_search`, `checkpoint`,
//! `maintain_once`) split their work by shard, lock every member shard's tree
//! in ascending shard order, and run the pieces one after another (the
//! `scheduler` module); a `multi_search`, `insert_batch` or `range_search` that
//! one shard owns skips the split and runs like a single-key call
//! (`ShardedPioEngine::run_leg`). Because the stores simulate time rather than
//! sleep, cross-shard overlap is accounted explicitly: once a call's last
//! piece has run, it adds the **maximum** of the participating shards'
//! simulated I/O deltas to the schedule makespan
//! ([`crate::EngineStats::scheduled_io_us`]), while the sum of all deltas
//! remains visible as `total_io_us`. The ratio of the two is the measured
//! overlap win. Results are always collected by shard index, so fan-outs are
//! deterministic.
//!
//! ## Maintenance
//!
//! The engine owns no thread. Each data call (`search`, `insert`, `update`,
//! `delete`, `multi_search`, `insert_batch`, `range_search`) ends, once it
//! has let go of its routing guard, its tree locks and its mutation bracket,
//! with a maintenance sweep if one is due
//! ([`crate::EngineConfig::maintenance_interval_ms`]; the `maintenance`
//! module). The caller pays for that sweep inside its call.
//!
//! This file holds the engine struct and its read and single-key request
//! paths. The rest is carved by protocol: `commit` (epoch open/decide and the
//! batched insert), `migrate` (the migration executor), `maintenance` (the
//! sweep, flush pass, probe, scrub, checkpoint and truncation), `recovery`,
//! `stats`, and assembly in `builder`.

use crate::builder::EngineBuilder;
use crate::commit::EpochCoordinator;
use crate::config::EngineConfig;
use crate::maintenance::{Cadence, DirtyState};
use crate::routing::{shard_of, shard_range, sole_owner, RoutingState};
use crate::shard::{Shard, ShardHealth};
use crate::stats::EngineCounters;
use crate::topology::{EngineManifest, ShardProvisioner};
use btree::{Key, Value};
use parking_lot::{Mutex, RwLock};
use pio::IoResult;
use pio_btree::{OpEntry, PioBTree};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

pub use crate::routing::boundaries_from_sample;

/// A key-range-sharded PIO B-tree engine whose batched calls fan out across
/// shards.
///
/// All operations take `&self` and run on their caller's thread; per-shard
/// trees are behind their own mutexes, so client threads operating on different
/// shards proceed concurrently (one tree behind one lock would serialise every
/// call). A batched call that spans shards locks its member trees in ascending
/// shard order and runs its legs in turn. The engine starts no thread: its
/// maintenance runs on the caller that ends a data call when a sweep is due.
pub struct ShardedPioEngine {
    /// The shards, in key order.
    pub(crate) shards: Vec<Shard>,
    /// The live routing table (bounds + in-flight migration); see
    /// [`RoutingState`] for the locking discipline.
    pub(crate) routing: RwLock<RoutingState>,
    pub(crate) config: EngineConfig,
    /// The storage topology the shards were provisioned on (manifest persistence
    /// for durable topologies; no-ops for the simulated ones).
    pub(crate) topology: Box<dyn ShardProvisioner>,
    /// The last manifest snapshot handed to the topology, so
    /// [`ShardedPioEngine::sync_manifest`] only persists actual changes.
    pub(crate) manifest: Mutex<Option<EngineManifest>>,
    /// Dirty-marker state: whether the topology's durable marker is raised,
    /// plus the counters that let a checkpoint prove no mutation raced its
    /// clear (see [`ShardedPioEngine::begin_mutation`] and
    /// [`ShardedPioEngine::checkpoint`]).
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
    /// When the next maintenance sweep, checkpoint and scrub are due; taken
    /// with `try_lock` by the caller that runs a due sweep.
    pub(crate) cadence: Mutex<Cadence>,
    /// Message of the most recent maintenance error.
    pub(crate) last_maintenance_error: Mutex<Option<String>>,
}

impl std::fmt::Debug for ShardedPioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPioEngine")
            .field("shards", &self.shards.len())
            .field("bounds", &self.routing.read().bounds)
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
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The boundary keys separating the shards (length `shards − 1`), a
    /// snapshot of the live routing table. Non-decreasing; two equal adjacent
    /// bounds denote a shard merged away to an empty range.
    pub fn boundaries(&self) -> Vec<Key> {
        self.routing.read().bounds.clone()
    }

    /// Bumped on every boundary change: lets callers detect that a rebalance
    /// happened between two observations without comparing bound vectors.
    pub fn routing_version(&self) -> u64 {
        self.routing.read().version
    }

    /// The shard index that owns `key` under the current boundaries. Advisory
    /// for concurrent callers: a rebalance may move the boundary right after
    /// this returns, so use it for placement hints (e.g. batch binning), not
    /// correctness — the engine's own entry points re-route internally.
    pub fn shard_for(&self, key: Key) -> usize {
        shard_of(&self.routing.read().bounds, key)
    }

    // ----------------------------------------------------------------- operations --

    /// Point search, routed to the owning shard.
    pub fn search(&self, key: Key) -> IoResult<Option<Value>> {
        self.then_sweep(|| self.single(key, |tree| tree.search(key)))
    }

    /// Insert, routed to the owning shard.
    pub fn insert(&self, key: Key, value: Value) -> IoResult<()> {
        self.then_sweep(|| self.single_write(OpEntry::insert(key, value)))
    }

    /// Delete, routed to the owning shard.
    pub fn delete(&self, key: Key) -> IoResult<()> {
        self.then_sweep(|| self.single_write(OpEntry::delete(key)))
    }

    /// Update, routed to the owning shard.
    pub fn update(&self, key: Key, value: Value) -> IoResult<()> {
        self.then_sweep(|| self.single_write(OpEntry::update(key, value)))
    }

    /// MPSearch across shards: the batch is split by owning shard and every
    /// sub-batch runs as an MPSearch on its shard, lowest shard first (a batch
    /// one shard owns is searched whole). Results are returned in the order of
    /// `keys`.
    pub fn multi_search(&self, keys: &[Key]) -> IoResult<Vec<Option<Value>>> {
        self.then_sweep(|| {
            if keys.is_empty() {
                return Ok(Vec::new());
            }
            // Pin the routing table across routing AND the search: a migration's
            // boundary swap must not land between the two.
            let routing = self.routing.read();
            // A batch one shard owns is searched whole, with no partition.
            if let Some(owner) = sole_owner(&routing.bounds, keys.iter().copied()) {
                self.shards[owner].note_batch(keys.len());
                return self.run_leg(owner, |tree| tree.multi_search(keys));
            }
            // Partition the batch by owning shard with a counting sort into one
            // buffer: `end[i]` first counts shard `i`'s keys, then marks where
            // they start and, once they are placed, where they end. Each leg
            // borrows its sub-batch, in caller order.
            let shards = self.shards.len();
            let mut end = vec![0usize; shards];
            for &key in keys {
                end[shard_of(&routing.bounds, key)] += 1;
            }
            let mut placed = 0;
            for at in &mut end {
                let count = *at;
                *at = placed;
                placed += count;
            }
            let mut by_shard = vec![0; keys.len()];
            for &key in keys {
                let at = &mut end[shard_of(&routing.bounds, key)];
                by_shard[*at] = key;
                *at += 1;
            }
            let work = (0..shards)
                .map(|i| (i, &by_shard[if i == 0 { 0 } else { end[i - 1] }..end[i]]))
                .filter(|(_, sub)| !sub.is_empty())
                .map(|(i, sub)| {
                    self.shards[i].note_batch(sub.len());
                    (i, move |tree: &mut PioBTree| tree.multi_search(sub))
                })
                .collect();
            let mut results = self.fan_out_tasks(work)?;
            // Each shard's verdicts are in caller order, so walking the keys
            // backwards, a key's verdict is the last one its shard has left.
            let mut out: Vec<Option<Value>> = keys
                .iter()
                .rev()
                .map(|&key| {
                    let shard = shard_of(&routing.bounds, key);
                    let at = results
                        .binary_search_by_key(&shard, |&(answered, _)| answered)
                        .expect("every routed shard answers");
                    results[at].1.pop().expect("one verdict per routed key")
                })
                .collect();
            out.reverse();
            Ok(out)
        })
    }

    /// Range search over `[lo, hi)`: every intersecting shard scans its clamped
    /// sub-range and the per-shard results (each sorted) are stitched together
    /// in shard order, which *is* key order.
    pub fn range_search(&self, lo: Key, hi: Key) -> IoResult<Vec<(Key, Value)>> {
        self.then_sweep(|| {
            if lo >= hi {
                return Ok(Vec::new());
            }
            // Pin the routing table across the fan-out (see `multi_search`).
            let routing = self.routing.read();
            // A range inside one shard is scanned without a fan-out.
            if let Some(owner) = sole_owner(&routing.bounds, [lo, hi - 1].into_iter()) {
                return self.run_leg(owner, |tree| tree.range_search(lo, hi));
            }
            let shard_count = self.shards.len();
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
            let results = self.fan_out_tasks(work)?;
            drop(routing);
            let mut out = Vec::new();
            for (_, mut part) in results {
                out.append(&mut part);
            }
            Ok(out)
        })
    }

    /// Simulates a crash of the whole engine: every shard loses its OPQ, buffer
    /// pool, LSMap and un-forced WAL records. Returns the total number of OPQ
    /// entries lost. Call [`ShardedPioEngine::recover`] afterwards.
    pub fn simulate_crash(&self) -> usize {
        self.shards.iter().map(|s| s.tree.lock().simulate_crash()).sum()
    }

    /// Counts live entries across all shards (expensive; for tests and examples).
    pub fn count_entries(&self) -> IoResult<u64> {
        let mut total: u64 = self.fan_out_all(|tree| tree.count_entries())?.into_iter().sum();
        // The underlying half-open range scan cannot see `Key::MAX` itself, so the
        // sentinel key is counted with a point lookup in its owning (last) shard —
        // with its I/O charged to the schedule like any other lookup.
        if self.single(Key::MAX, |tree| tree.search(Key::MAX))?.is_some() {
            total += 1;
        }
        Ok(total)
    }

    /// Verifies per-shard structural invariants plus the engine-level invariant
    /// that every shard only holds keys inside its range. Returns the live entry
    /// count. Intended for tests.
    pub fn check_invariants(&self) -> IoResult<u64> {
        let mut total = 0;
        let shard_count = self.shards.len();
        let last_shard = shard_count - 1;
        // Pin the routing table for the whole sweep (and skip the containment
        // assertions while a migration is mid-copy — the destination legally
        // holds out-of-range keys until the commit swaps the boundary).
        let routing = self.routing.read();
        let mid_migration = routing.migration.is_some();
        // Conceptually a fan over all shards: charge the schedule the slowest
        // shard's verification I/O, like fan_out does.
        let mut makespan_us = 0.0f64;
        for (i, shard) in self.shards.iter().enumerate() {
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
        self.charge(makespan_us);
        Ok(total)
    }

    /// Schedule makespan so far, µs (see [`crate::EngineStats::scheduled_io_us`]).
    pub fn scheduled_io_us(&self) -> f64 {
        *self.scheduled_us.lock()
    }

    /// Total device work so far across all shards, µs.
    pub fn total_io_us(&self) -> f64 {
        self.shards.iter().map(|s| s.tree.lock().io_elapsed_us()).sum()
    }

    /// Runs a data call, then the maintenance sweep if one is due
    /// ([`ShardedPioEngine::sweep_if_due`]). Every guard the call takes lives
    /// inside `call`, so the sweep starts with none of them held: a due
    /// auto-rebalance's boundary swap would otherwise wait on this caller's
    /// own routing read lock. A sweep's error is the engine's
    /// (`maintenance_errors`), never the call's.
    pub(crate) fn then_sweep<R>(&self, call: impl FnOnce() -> R) -> R {
        let out = call();
        self.sweep_if_due();
        out
    }

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
    /// single-key calls, batched calls one shard owns ([`ShardedPioEngine::run_leg`])
    /// and the maintenance and migration steps, which touch one shard at a time.
    pub(crate) fn on_shard<R>(&self, shard: &Shard, op: impl FnOnce(&mut PioBTree) -> R) -> R {
        let (out, io_delta_us) = shard.run(op);
        self.charge(io_delta_us);
        out
    }

    /// Runs `task`, the one leg of a batched call that shard `shard` owns whole,
    /// on the calling thread — the route single-key calls take — under the
    /// contract of a fan-out's leg ([`ShardedPioEngine::fan_out_tasks`]): a panic is
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

    /// Fans an operation out to *every* shard and returns the results in shard
    /// order.
    pub(crate) fn fan_out_all<T>(&self, op: impl Fn(&mut PioBTree) -> IoResult<T>) -> IoResult<Vec<T>> {
        let work = (0..self.shards.len()).map(|i| (i, &op)).collect();
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

    /// An engine whose shard 0 holds three quarters of an OPQ: past the
    /// maintenance floor, short of the foreground flush a full queue takes.
    fn past_the_floor(interval_ms: u64) -> (ShardedPioEngine, usize) {
        let mut config = small_config(2);
        config.maintenance_interval_ms = Some(interval_ms);
        let engine = ShardedPioEngine::create(config, &(0..1_000u64).collect::<Vec<_>>()).unwrap();
        let capacity = engine.stats().shards[0].opq_capacity;
        let batch: Vec<(Key, Value)> = (0..capacity as u64 * 3 / 4).map(|k| (k, k)).collect();
        engine.insert_batch(&batch).unwrap();
        (engine, capacity.div_ceil(2))
    }

    #[test]
    fn a_due_sweep_runs_on_the_call_that_finds_it_due() {
        let (engine, floor) = past_the_floor(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        engine.search(1).unwrap();
        // The batch's own call may have found a sweep due already; either
        // way, exactly one sweep drained the queue by the time this returns.
        let stats = engine.stats();
        assert!(stats.shards[0].opq_len < floor, "{} left", stats.shards[0].opq_len);
        assert_eq!(stats.maintenance_flushes, 1);
        assert_eq!(stats.maintenance_errors, 0);
        assert!(stats.last_maintenance_error.is_none());
    }

    #[test]
    fn no_call_sweeps_before_the_interval_has_passed() {
        let (engine, floor) = past_the_floor(3_600_000);
        for k in 0..100u64 {
            engine.search(k).unwrap();
            engine.multi_search(&[k, 900 + k]).unwrap();
        }
        let stats = engine.stats();
        assert!(stats.shards[0].opq_len >= floor);
        assert_eq!(stats.maintenance_flushes, 0);
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
