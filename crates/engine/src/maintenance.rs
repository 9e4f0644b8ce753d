//! The background maintenance worker.
//!
//! The paper's OPQ flush (bupdate) runs on the caller's critical path: the insert
//! that fills the queue pays for the whole batch update. The engine moves that work
//! off the foreground path: a detached worker thread periodically sweeps the shards
//! and drains any OPQ at or above `FLUSH_THRESHOLD` of its capacity, so foreground
//! operations only ever flush when a queue fills completely between two sweeps.
//!
//! The worker parks between sweeps and is stopped-and-joined when the engine is
//! dropped, so it never outlives the shards it maintains.
//!
//! What the worker ticks lives here too, callable directly in deterministic
//! (no-worker) setups: the flush pass, the breaker probe, the scrub tick, and
//! the checkpoint with what anchors on it — the durable dirty marker, the
//! persisted manifest and checkpoint-anchored log truncation.

use crate::sharded::EngineInner;
use crate::topology::{EngineManifest, ShardMeta};
use pio::IoResult;
use pio_btree::PioBTree;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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

/// Handle to the background maintenance thread; stopping is handled by `Drop`.
pub(crate) struct MaintenanceWorker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MaintenanceWorker {
    /// Spawns a worker sweeping `inner` every `interval`.
    pub(crate) fn spawn(inner: Arc<EngineInner>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("engine-maintenance".into())
            .spawn(move || {
                let checkpoint_every = inner.config.checkpoint_interval_ms.map(Duration::from_millis);
                let scrub_every = inner.config.scrub_interval_ms.map(Duration::from_millis);
                let mut last_checkpoint = Instant::now();
                let mut last_scrub = Instant::now();
                while !stop_flag.load(Ordering::Acquire) {
                    // A failed flush keeps its batch queued (flush_once restores
                    // it), but partially applied node writes may need WAL recovery,
                    // so the error is recorded and surfaced through EngineStats
                    // rather than silently dropped. The sweep moves on to keep the
                    // healthy shards drained.
                    inner.note_maintenance(inner.maintain_once());
                    // With auto-rebalance enabled, each sweep also runs one
                    // balancer decision cycle: at most one split/merge
                    // migration per interval, so the worker can never thrash
                    // boundaries faster than it drains queues.
                    if inner.config.rebalance.auto {
                        inner.note_maintenance(inner.auto_rebalance_tick());
                    }
                    // Checkpoint cadence: dirty-shard tracking makes the
                    // checkpoint incremental, so running it from the sweep
                    // costs only what actually changed since the last tick
                    // (plus the log truncation it anchors).
                    if let Some(every) = checkpoint_every {
                        if last_checkpoint.elapsed() >= every {
                            inner.note_maintenance(inner.checkpoint());
                            last_checkpoint = Instant::now();
                        }
                    }
                    // Scrub cadence: each tick verifies a bounded slice of
                    // every healthy shard's checksummed pages, so a full pass
                    // amortises over many sweeps instead of stalling one.
                    if let Some(every) = scrub_every {
                        if last_scrub.elapsed() >= every {
                            inner.note_maintenance(inner.scrub_tick(SCRUB_PAGES_PER_TICK));
                            last_scrub = Instant::now();
                        }
                    }
                    std::thread::park_timeout(interval);
                }
            })
            .expect("spawn maintenance worker");
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for MaintenanceWorker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
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
    inner: &'a EngineInner,
}

impl Drop for MutationGuard<'_> {
    fn drop(&mut self) {
        self.inner.dirty.lock().in_flight -= 1;
    }
}

impl EngineInner {
    /// Records the failure of a background maintenance step so it surfaces
    /// through [`crate::EngineStats`] instead of disappearing in the worker thread.
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

    /// One scrub tick: every healthy shard verifies a bounded slice of its
    /// checksummed pages (see [`storage::CachedStore::scrub_step`]). Degraded
    /// shards are skipped — scrub reads would only hammer a device the breaker
    /// just decided to rest.
    pub(crate) fn scrub_tick(&self, max_pages_per_shard: usize) -> IoResult<usize> {
        let mut scanned = 0;
        for shard in self.shards.iter().filter(|s| !s.health.is_open()) {
            scanned += self
                .on_shard(shard, |tree| tree.store().scrub_step(max_pages_per_shard))?
                .scanned;
        }
        Ok(scanned)
    }

    pub(crate) fn maintain_once(&self) -> IoResult<usize> {
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
    /// mutation, so a concurrent [`EngineInner::checkpoint`] can prove whether
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
        Ok(MutationGuard { inner: self })
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
        // Snapshot under the manifest lock: two concurrent syncs (checkpoint +
        // background maintenance) must not save an older snapshot after a newer
        // one. No other path acquires shard locks after the manifest lock, so
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
    /// commit record ([`crate::commit::EpochCoordinator::cut`]).
    pub(crate) fn checkpoint(&self) -> IoResult<()> {
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
