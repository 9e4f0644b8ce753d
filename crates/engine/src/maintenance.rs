//! Maintenance: the sweep a caller runs when one is due, and what it runs.
//!
//! The paper's OPQ flush (bupdate) runs on the caller's critical path: the
//! insert that fills the queue pays for the whole batch update. The engine
//! keeps that, and adds an earlier flush: with
//! [`crate::EngineConfig::maintenance_interval_ms`] set, each data call ends
//! with [`ShardedPioEngine::sweep_if_due`], which runs one sweep on the caller
//! once an interval has passed since the last one ended. The sweep drains any
//! OPQ at or above `FLUSH_THRESHOLD` of its capacity, so a foreground insert
//! only flushes a queue that filled completely between two sweeps. The engine
//! owns no thread; a sweep is paid for inside the call that ran it.
//!
//! What a sweep runs lives here too, callable directly in deterministic
//! setups: the flush pass, the breaker probe, the scrub tick, and the
//! checkpoint with what anchors on it — the durable dirty marker, the
//! persisted manifest and checkpoint-anchored log truncation.

use crate::sharded::ShardedPioEngine;
use crate::topology::{EngineManifest, ShardMeta};
use pio::IoResult;
use pio_btree::PioBTree;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use storage::Lsn;

/// Pages each shard verifies per scrub tick: enough to cycle a multi-thousand
/// page shard in minutes at default cadences, small enough that one tick's
/// read burst never crowds out foreground traffic.
const SCRUB_PAGES_PER_TICK: usize = 128;

/// Fraction of a shard's OPQ capacity at which the maintenance pass flushes it
/// — early enough that a foreground insert rarely finds the queue full, late
/// enough that each flush still carries half a queue of work.
const FLUSH_THRESHOLD: f64 = 0.5;

/// When the maintenance steps are next due, in wall-clock time. The engine is
/// built as if a sweep, a checkpoint and a scrub had just ended.
pub(crate) struct Cadence {
    /// One `maintenance_interval_ms` after the last sweep ended.
    next_sweep: Instant,
    /// When the last checkpoint the sweeps ran ended.
    last_checkpoint: Instant,
    /// When the last scrub tick the sweeps ran ended.
    last_scrub: Instant,
}

impl Cadence {
    /// A cadence whose first sweep is due one `interval_ms` from now (`None`:
    /// no sweep is ever due, and the clock is never read again).
    pub(crate) fn starting_now(interval_ms: Option<u64>) -> Self {
        let now = Instant::now();
        Self {
            next_sweep: now + Duration::from_millis(interval_ms.unwrap_or(0)),
            last_checkpoint: now,
            last_scrub: now,
        }
    }
}

/// State of the durable dirty marker (see [`crate::ShardProvisioner::set_dirty`]).
#[derive(Debug, Default)]
pub(crate) struct DirtyState {
    /// Whether the durable marker is currently raised.
    pub(crate) marked: bool,
    /// Mutations that have *begun* over the engine's lifetime (monotonic).
    pub(crate) begun: u64,
    /// Mutations begun but not yet finished.
    pub(crate) in_flight: u64,
}

/// RAII half of a mutation bracket: decrements `in_flight` when the mutation
/// finishes (success or error alike).
pub(crate) struct MutationGuard<'a> {
    engine: &'a ShardedPioEngine,
}

impl Drop for MutationGuard<'_> {
    fn drop(&mut self) {
        self.engine.dirty.lock().in_flight -= 1;
    }
}

impl ShardedPioEngine {
    /// One maintenance sweep, if one is due: the breaker probe and the flush
    /// pass ([`ShardedPioEngine::maintain_once`]), one auto-rebalance decision
    /// when [`crate::RebalanceConfig::auto`] is set, and a checkpoint and a
    /// scrub tick when their own intervals have passed. The next sweep is due
    /// one `maintenance_interval_ms` after this one ends.
    ///
    /// Run by a data call once it holds no lock. Without a maintenance
    /// interval it returns before reading the clock. The caller that takes the
    /// cadence sweeps; a caller that finds it taken returns at once. A step's
    /// error is recorded ([`crate::EngineStats::maintenance_errors`]) and the
    /// sweep moves on: a failed flush keeps its batch queued (`flush_once`
    /// restores it), and the next due sweep tries again.
    pub(crate) fn sweep_if_due(&self) {
        let Some(interval_ms) = self.config.maintenance_interval_ms else {
            return;
        };
        let Some(mut cadence) = self.cadence.try_lock() else {
            return;
        };
        if Instant::now() < cadence.next_sweep {
            return;
        }
        self.note_maintenance(self.maintain_once());
        // At most one split/merge per sweep, so boundaries never move faster
        // than the queues drain.
        if self.config.rebalance.auto {
            self.note_maintenance(self.rebalance_once());
        }
        // Dirty-shard tracking makes the checkpoint incremental, so running it
        // from the sweep costs only what changed since the last one (plus the
        // log truncation it anchors).
        if let Some(every) = self.config.checkpoint_interval_ms {
            if cadence.last_checkpoint.elapsed() >= Duration::from_millis(every) {
                self.note_maintenance(self.checkpoint());
                cadence.last_checkpoint = Instant::now();
            }
        }
        // Each tick verifies a bounded slice of every healthy shard's
        // checksummed pages, so a full pass amortises over many sweeps.
        if let Some(every) = self.config.scrub_interval_ms {
            if cadence.last_scrub.elapsed() >= Duration::from_millis(every) {
                self.note_maintenance(self.scrub_once(SCRUB_PAGES_PER_TICK));
                cadence.last_scrub = Instant::now();
            }
        }
        cadence.next_sweep = Instant::now() + Duration::from_millis(interval_ms);
    }

    /// Records the failure of a maintenance step so it surfaces through
    /// [`crate::EngineStats`] instead of replacing the result of the call that
    /// ran the sweep.
    fn note_maintenance<T>(&self, step: IoResult<T>) {
        if let Err(error) = step {
            self.counters.maintenance_errors.fetch_add(1, Ordering::Relaxed);
            *self.last_maintenance_error.lock() = Some(error.to_string());
        }
    }

    /// Probes every degraded shard's device with one direct page read (the
    /// root page, bypassing all caches) and closes the breaker on success.
    /// Called from the maintenance path so shards heal without foreground
    /// traffic having to risk the sick device first.
    pub(crate) fn probe_degraded(&self) {
        for shard in self.shards.iter().filter(|s| s.health.is_open()) {
            let probe = self.on_shard(shard, |tree| tree.store().store().read_page(tree.root_page()));
            if probe.is_ok() {
                shard.health.close();
            }
        }
    }

    /// One checksum-scrub pass: every healthy shard re-reads and verifies up
    /// to `max_pages_per_shard` of its checksummed pages
    /// ([`storage::CachedStore::scrub_step`]), healing rot from clean pooled
    /// copies where possible. Returns the total pages scanned. A due sweep
    /// runs this on the [`crate::EngineConfig::scrub_interval_ms`] cadence.
    /// Degraded shards are skipped — scrub reads would only hammer a device
    /// the breaker just decided to rest.
    pub fn scrub_once(&self, max_pages_per_shard: usize) -> IoResult<usize> {
        let mut scanned = 0;
        for shard in self.shards.iter().filter(|s| !s.health.is_open()) {
            scanned += self
                .on_shard(shard, |tree| tree.store().scrub_step(max_pages_per_shard))?
                .scanned;
        }
        Ok(scanned)
    }

    /// One maintenance pass: every shard whose OPQ fill is at or above
    /// `FLUSH_THRESHOLD` of its capacity is drained below it. Returns the
    /// number of shards flushed. Every sweep runs exactly this. Degraded
    /// shards get a healing probe first and are excluded from the flush.
    pub fn maintain_once(&self) -> IoResult<usize> {
        // Give degraded shards their healing probe before anything else — the
        // flush pass below deliberately leaves them alone.
        self.probe_degraded();
        let work = self
            .shards
            .iter()
            .enumerate()
            // A degraded shard's OPQ stays queued: flushing it would drive a
            // bupdate into the device the breaker is resting.
            .filter(|(_, s)| !s.health.is_open())
            .filter_map(|(i, s)| {
                let tree = s.tree.lock();
                let floor = ((tree.opq_capacity() as f64) * FLUSH_THRESHOLD).ceil() as usize;
                let floor = floor.max(1);
                (tree.opq_len() >= floor).then_some((i, floor))
            })
            .map(|(i, floor)| {
                // A selected shard may have been drained by a foreground flush
                // between the scan above (locks released) and the task running;
                // count only shards where this pass actually ran a bupdate.
                (i, move |tree: &mut PioBTree| {
                    let mut did_flush = false;
                    while tree.opq_len() >= floor {
                        tree.flush_once()?;
                        did_flush = true;
                    }
                    Ok(did_flush)
                })
            })
            .collect();
        let flushed = self
            .fan_out_tasks(work)?
            .into_iter()
            .filter(|&(_, did_flush)| did_flush)
            .count();
        if flushed > 0 {
            self.counters.maintenance_flushes.fetch_add(1, Ordering::Relaxed);
            // Flushes may have grown roots and allocated pages: keep the
            // persisted manifest fresh off the foreground path.
            self.sync_manifest()?;
        }
        Ok(flushed)
    }

    /// The current manifest snapshot: shard boundaries plus each shard's
    /// superblock (root, height, allocation frontier).
    fn manifest_snapshot(&self) -> EngineManifest {
        EngineManifest {
            shards: self.shards.len(),
            page_size: self.config.base.page_size,
            wal_enabled: self.config.base.wal_enabled,
            bounds: self.routing.read().bounds.clone(),
            shard_meta: self
                .shards
                .iter()
                .map(|s| {
                    let tree = s.tree.lock();
                    ShardMeta {
                        root: tree.root_page(),
                        height: tree.height() as u64,
                        high_water: tree.store().store().high_water_pages(),
                    }
                })
                .collect(),
        }
    }

    /// Opens a mutation bracket: raises the durable dirty marker (only the
    /// first mutation after a checkpoint pays the topology call) and counts the
    /// mutation, so a concurrent [`ShardedPioEngine::checkpoint`] can prove whether
    /// its clear raced a writer. The returned guard closes the bracket on drop.
    pub(crate) fn begin_mutation(&self) -> IoResult<MutationGuard<'_>> {
        let mut state = self.dirty.lock();
        state.begun += 1;
        state.in_flight += 1;
        if !state.marked {
            if let Err(e) = self.topology.set_dirty(true) {
                state.in_flight -= 1;
                return Err(e);
            }
            state.marked = true;
        }
        drop(state);
        Ok(MutationGuard { engine: self })
    }

    /// Every shard WAL's truncation floor (0 without a WAL), one tree lock
    /// at a time. A floor only rises, so a stale reading is a safe one.
    fn wal_floors(&self) -> Vec<Lsn> {
        self.shards
            .iter()
            .map(|s| s.tree.lock().wal().map_or(0, |w| w.start_lsn()))
            .collect()
    }

    /// Persists the manifest through the topology when it changed since the
    /// last sync. Called after creation, checkpoints, maintenance flushes and
    /// recovery — the points where shard superblocks move durably. Roots moved
    /// by foreground flushes *between* syncs are covered by the WAL's
    /// `FlushRoot`/`FlushAlloc` roll-forward at the next recovery; without a
    /// WAL the manifest is only as fresh as the last checkpoint (see
    /// [`crate::RealFiles`]).
    pub(crate) fn sync_manifest(&self) -> IoResult<()> {
        // Snapshot under the manifest lock: two concurrent syncs (a checkpoint
        // and another caller's sweep) must not save an older snapshot after a
        // newer one. No other path acquires shard locks after the manifest lock, so
        // the ordering is cycle-free.
        let mut cached = self.manifest.lock();
        let snapshot = self.manifest_snapshot();
        if cached.as_ref() != Some(&snapshot) {
            self.topology.save_manifest(&snapshot)?;
            *cached = Some(snapshot);
        }
        Ok(())
    }

    /// Incremental checkpoint: flushes only the shards that logged or queued
    /// work since their last checkpoint, persists the manifest, then truncates
    /// the shard WALs up to their new `Checkpoint` records. Truncation is
    /// anchored on the *committed* checkpoint — the manifest sync happens
    /// first, so the superblocks recovery would need are durable before any
    /// `FlushRoot`/`FlushAlloc` record is dropped — and honours two epoch
    /// rules: an undecided epoch's open bracket pins its shard's whole log
    /// ([`PioBTree::truncate_wal`]), and a coordinator keeps an unsettled
    /// commit record (`EpochCoordinator::cut`). A due sweep
    /// runs this on the [`crate::EngineConfig::checkpoint_interval_ms`]
    /// cadence.
    pub fn checkpoint(&self) -> IoResult<()> {
        let begun_before = self.dirty.lock().begun;
        // Incremental selection: a shard pays a flush (and even the Checkpoint
        // record append) only when something reached its log or queue since
        // the last checkpoint. Clean shards are untouched.
        let work = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                let tree = s.tree.lock();
                tree.dirty_ops() > 0 || tree.opq_len() > 0
            })
            .map(|(i, _)| (i, |tree: &mut PioBTree| tree.checkpoint()))
            .collect();
        // Each flushed shard answers with the LSN of its new `Checkpoint` record.
        let flushed: Vec<(usize, Lsn)> = self.fan_out_tasks(work)?;
        // The checkpoint moved the flushed shards' durable frontiers: refresh
        // the persisted manifest so a WAL-less reopen sees the checkpointed
        // state. This MUST precede truncation — once FlushRoot records are
        // gone, the manifest is the only carrier of the rolled-forward roots.
        self.sync_manifest()?;
        // Checkpoint-anchored truncation of every log with a replayable tail,
        // highest shard first: a coordinator is its epochs' lowest member
        // shard (or a migration's source), so the participants' cuts this
        // round usually settle its commits before its own cut is taken.
        let mut dropped: u64 = 0;
        for &(shard, ckpt) in flushed.iter().rev() {
            let cut = match &self.epoch {
                Some(coord) => {
                    coord.checkpointed(shard, ckpt);
                    coord.cut(shard, ckpt, &self.wal_floors())
                }
                None => ckpt,
            };
            let mut tree = self.shards[shard].tree.lock();
            if tree.wal_replayable_bytes() > 0 {
                dropped += tree.truncate_wal(cut)?;
            }
        }
        self.counters.truncated_bytes.fetch_add(dropped, Ordering::Relaxed);
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        // Clear the dirty marker only when provably nothing raced the flush: no
        // mutation began since before the fan-out and none is still in flight.
        // The OPQ/manifest re-check runs while the dirty lock is held, so a new
        // writer (blocked in begin_mutation) cannot slip between the proof and
        // the clear; writers arriving after the clear re-raise the marker.
        let mut state = self.dirty.lock();
        if state.marked && state.in_flight == 0 && state.begun == begun_before {
            let quiescent = self.shards.iter().all(|s| s.tree.lock().opq_len() == 0);
            if quiescent {
                self.sync_manifest()?;
                self.topology.set_dirty(false)?;
                state.marked = false;
            }
        }
        Ok(())
    }
}
