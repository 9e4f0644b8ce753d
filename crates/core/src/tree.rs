//! The PIO B-tree itself (Section 3.3): the integration of MPSearch, prange search,
//! the OPQ with batch updates, and asymmetric append-only leaf nodes.
//!
//! Structure on disk:
//!
//! * internal nodes are single pages in the same format as the baseline B+-tree
//!   (sorted separator keys + child pointers);
//! * leaf nodes are `L` physically consecutive pages (Leaf Segments) holding records
//!   in the append-only OPQ-entry format (see [`crate::leaf`]);
//! * there is always at least one internal level (the root), so the tree height is
//!   `internal levels + 1` and every leaf has a parent to receive fence keys.
//!
//! I/O discipline: internal nodes and leaf pages are cached by a write-through
//! buffer pool (the store's one cache — the tree keeps no copy of its own, so a
//! write or a crash that changes the pool leaves nothing stale behind); a leaf
//! read fetches the pages the pool misses, and a scan reads a leaf the pool
//! does not hold whole with one large request (`Pr(L)` in the cost model); a
//! point lookup of a leaf with segment fences reads only its one segment (see
//! `search`); every level's batched read goes through the one read driver
//! (`io::read_regions`) and every write through the one write driver
//! (`io::write_regions`), in psync calls of at most `PioMax` — the reads
//! beside the driver are single calls of at most `PioMax` regions (bupdate's
//! Phase B re-read of a chunk's full-path leaves) or pages (an undo's read of
//! the pages it cuts back); reads and writes are never mixed in one call
//! (Principle 3).
//!
//! This file is the tree proper — construction, accessors, the write entry
//! ([`PioBTree::apply`]) and the invariant checker. The read half lives in
//! `search`, the OPQ flush and its undo journal in `flush`, and restart
//! recovery in [`crate::recovery`].

use crate::config::PioConfig;
use crate::entry::{OpEntry, OpKind};
use crate::io::write_regions;
use crate::leaf::{LeafView, PioLeaf};
use crate::lsmap::LsMap;
use crate::opq::OperationQueue;
use crate::recovery::{LogRecord, LOCAL_EPOCH};
use btree::{InternalNode, InternalView, Key, Node, Value};
use pio::{IoResult, SimPsyncIo, TicketRing};
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{CachedStore, Lsn, PageClass, PageId, PageImage, PageStore, Wal, WritePolicy};

pub(crate) mod flush;
mod search;

/// Operation and structural counters of a [`PioBTree`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PioStats {
    /// Point searches.
    pub searches: u64,
    /// Multi-key (MPSearch) calls.
    pub multi_searches: u64,
    /// prange searches.
    pub range_searches: u64,
    /// Insert operations accepted.
    pub inserts: u64,
    /// Delete operations accepted.
    pub deletes: u64,
    /// Update operations accepted.
    pub updates: u64,
    /// OPQ appends (should equal inserts + deletes + updates).
    pub opq_appends: u64,
    /// bupdate invocations.
    pub bupdates: u64,
    /// Leaves handled by the append path (last-LS read + segment writes).
    pub leaf_appends: u64,
    /// Leaves handled by the full path (whole-region read, shrink, rewrite).
    pub leaf_rewrites: u64,
    /// Shrink operations performed.
    pub shrinks: u64,
    /// Leaf splits.
    pub leaf_splits: u64,
    /// Internal node splits.
    pub internal_splits: u64,
    /// Times the tree grew a level.
    pub height_growths: u64,
    /// Leaf reads of a point lookup that fetched the one segment of a fenced
    /// leaf that can hold the key, not the whole region (see [`crate::LsMap`]).
    pub segment_reads: u64,
    /// Descents that read no internal node through the store: the pool
    /// held every level. The name is the frozen benchmark's
    /// (`core.inner_tier_hit_rate`), from before internal nodes had one cache.
    pub inner_tier_hits: u64,
    /// Descents that read at least one internal node through the store: a
    /// level met a node the pool did not hold.
    pub inner_tier_misses: u64,
    /// Always 0, like [`PioStats::inner_tier_retries`]: the inner tier and its
    /// snapshot rebuilds are gone. Both fields stay only because the frozen
    /// benchmark (`perf/src/layers.rs`) still reads them; the next benchmark
    /// change can drop those metrics and these fields together.
    pub inner_tier_rebuilds: u64,
    /// Always 0 (see [`PioStats::inner_tier_rebuilds`]).
    pub inner_tier_retries: u64,
}

impl PioStats {
    /// Accumulates `other` into `self`, field by field — used by the sharded engine
    /// to roll per-shard counters up into one aggregate. The exhaustive destructuring
    /// (no `..`) makes adding a `PioStats` field without extending the rollup a
    /// compile error.
    pub fn merge(&mut self, other: &PioStats) {
        let PioStats {
            searches,
            multi_searches,
            range_searches,
            inserts,
            deletes,
            updates,
            opq_appends,
            bupdates,
            leaf_appends,
            leaf_rewrites,
            shrinks,
            leaf_splits,
            internal_splits,
            height_growths,
            segment_reads,
            inner_tier_hits,
            inner_tier_misses,
            inner_tier_rebuilds,
            inner_tier_retries,
        } = *other;
        self.searches += searches;
        self.multi_searches += multi_searches;
        self.range_searches += range_searches;
        self.inserts += inserts;
        self.deletes += deletes;
        self.updates += updates;
        self.opq_appends += opq_appends;
        self.bupdates += bupdates;
        self.leaf_appends += leaf_appends;
        self.leaf_rewrites += leaf_rewrites;
        self.shrinks += shrinks;
        self.leaf_splits += leaf_splits;
        self.internal_splits += internal_splits;
        self.height_growths += height_growths;
        self.segment_reads += segment_reads;
        self.inner_tier_hits += inner_tier_hits;
        self.inner_tier_misses += inner_tier_misses;
        self.inner_tier_rebuilds += inner_tier_rebuilds;
        self.inner_tier_retries += inner_tier_retries;
    }

    /// Total update-type operations accepted (inserts + deletes + updates).
    pub fn update_ops(&self) -> u64 {
        self.inserts + self.deletes + self.updates
    }
}

/// The PIO B-tree.
pub struct PioBTree {
    pub(crate) store: Arc<CachedStore>,
    pub(crate) config: PioConfig,
    pub(crate) root: PageId,
    /// Total levels including the leaf level (always ≥ 2).
    pub(crate) height: usize,
    pub(crate) opq: OperationQueue,
    pub(crate) lsmap: LsMap,
    stats: PioStats,
    pub(crate) wal: Option<Wal>,
    pub(crate) next_flush_id: u64,
    pub(crate) next_tx: u64,
    /// Ticket-pipeline depth of the batched hot paths, resolved at construction
    /// from `config.pipeline_depth` and the store backend's queue-depth hint.
    pipeline_depth: usize,
    /// Earliest `BatchBegin` LSN of every cross-shard epoch whose verdict the
    /// engine has not delivered yet ([`PioBTree::resolve_epoch`]). WAL
    /// truncation must never pass the minimum of these: recovery needs the
    /// whole bracket to keep or discard the epoch atomically.
    pub(crate) open_brackets: BTreeMap<u64, Lsn>,
    /// Operations accepted since the last checkpoint — the engine's dirty-shard
    /// test (a clean shard's checkpoint would be pure overhead).
    dirty_ops: u64,
    /// Reused buffers of the batched read paths and bupdate's descent.
    scratch: search::SearchScratch,
}

impl std::fmt::Debug for PioBTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PioBTree")
            .field("root", &self.root)
            .field("height", &self.height)
            .field("opq_len", &self.opq.len())
            .field("leaves_tracked", &self.lsmap.len())
            .finish()
    }
}

impl PioBTree {
    // ------------------------------------------------------------------ creation --

    /// Creates an empty PIO B-tree over a freshly simulated device of `profile` with
    /// `capacity_bytes` of storage.
    pub fn create(profile: DeviceProfile, capacity_bytes: u64, config: PioConfig) -> IoResult<Self> {
        let io = Arc::new(SimPsyncIo::with_profile(profile, capacity_bytes));
        let store = Arc::new(CachedStore::new(
            PageStore::new(io, config.page_size),
            config.pool_pages,
            WritePolicy::WriteThrough,
        ));
        let mut tree = Self::bulk_load(store, &[], config.clone())?;
        if config.wal_enabled {
            // The log lives in its own file (its own backend) so log appends never
            // interleave with index-node I/O inside a psync call; it is forced in
            // the device's flash pages.
            let wal_io = Arc::new(SimPsyncIo::with_profile(profile, 256 * 1024 * 1024));
            let flash_page_bytes = profile.build().flash_page_bytes;
            tree.wal = Some(Wal::with_flash_page(wal_io, 0, config.page_size, flash_page_bytes));
        }
        Ok(tree)
    }

    /// Builds a PIO B-tree over an existing cached store (whose page size must match
    /// the configuration) by bulk loading `entries`, which must be sorted and
    /// duplicate-free.
    pub fn bulk_load(store: Arc<CachedStore>, entries: &[(Key, Value)], config: PioConfig) -> IoResult<Self> {
        config.validate().map_err(pio::IoError::InvalidConfig)?;
        assert_eq!(
            store.page_size(),
            config.page_size,
            "store page size must match the config"
        );
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires sorted, duplicate-free input"
        );
        let page_size = config.page_size;
        let segments = config.leaf_segments;
        let leaf_cap = PioLeaf::capacity(segments, page_size);
        let per_leaf = ((leaf_cap as f64 * config.fill_factor).floor() as usize).max(1);
        let pipeline_depth = config.resolve_pipeline_depth(store.queue_depth_hint());
        let mut lsmap = LsMap::new();

        // --- Leaf level -----------------------------------------------------------
        // Leaves are encoded a window at a time — the `pipeline_depth` calls of
        // `PioMax` regions the write driver keeps in flight — so the load never
        // holds more than one window of images. An empty input loads one empty
        // leaf.
        let mut ring = TicketRing::new(pipeline_depth);
        let window = config.pio_max * pipeline_depth;
        let mut level: Vec<(Key, PageId)> = Vec::new();
        let mut images: Vec<(PageId, PageImage)> = Vec::with_capacity(window);
        for chunk in entries.chunks(per_leaf).chain(entries.is_empty().then_some(entries)) {
            let first = store.allocate_contiguous(segments as u64);
            let leaf = PioLeaf::from_sorted(segments, chunk);
            lsmap.set_sorted(first, leaf.segment_fences(page_size));
            level.push((chunk.first().map(|&(k, _)| k).unwrap_or(0), first));
            images.push((first, leaf.encode(page_size)));
            if images.len() == window {
                write_regions(&store, &images, PageClass::Leaf, config.pio_max, &mut ring)?;
                images.clear();
            }
        }
        write_regions(&store, &images, PageClass::Leaf, config.pio_max, &mut ring)?;

        // --- Internal levels --------------------------------------------------------
        // At least one: the root, even over a single leaf.
        let internal_cap =
            ((InternalNode::max_children(page_size) as f64 * config.fill_factor).floor() as usize).max(2);
        let mut height = 1usize;
        while height == 1 || level.len() > 1 {
            height += 1;
            images.clear();
            let mut next_level = Vec::new();
            for chunk in level.chunks(internal_cap) {
                let page = store.allocate();
                let node = InternalNode {
                    keys: chunk.iter().skip(1).map(|&(k, _)| k).collect(),
                    children: chunk.iter().map(|&(_, p)| p).collect(),
                };
                next_level.push((chunk[0].0, page));
                images.push((page, Node::Internal(node).encode(page_size)));
            }
            write_regions(&store, &images, PageClass::Inner, config.pio_max, &mut ring)?;
            level = next_level;
        }

        Self::over(store, config, level[0].1, height, lsmap)
    }

    /// Reopens a tree over a store that already holds its pages — the restart
    /// path of a persistent deployment. `root`, `height` and the store's
    /// allocation frontier come from a persisted manifest snapshot (the
    /// superblock that [`PioBTree::simulate_crash`]'s surviving root pointer
    /// stands in for); the caller must restore the frontier with
    /// [`storage::CachedStore::ensure_high_water`] before operating on the tree.
    /// The volatile state (OPQ, LSMap, statistics) starts empty, exactly as
    /// after a crash.
    ///
    /// The snapshot may be **stale** when a WAL is attached afterwards: flushes
    /// completed after the snapshot moved the root and allocated pages, and
    /// [`PioBTree::recover`] rolls both forward from the log's `FlushRoot` /
    /// `FlushAlloc` records. Without a WAL the snapshot must describe a cleanly
    /// checkpointed tree — there is nothing to roll forward from.
    pub fn open(store: Arc<CachedStore>, config: PioConfig, root: PageId, height: usize) -> IoResult<Self> {
        config.validate().map_err(pio::IoError::InvalidConfig)?;
        assert_eq!(
            store.page_size(),
            config.page_size,
            "store page size must match the config"
        );
        // The snapshot comes from a persisted manifest, so an impossible value
        // is corruption, not a caller bug: report it instead of panicking.
        if height < 2 {
            return Err(pio::IoError::InvalidConfig(format!(
                "snapshot height {height} is impossible (a PIO B-tree always has at least one internal level)"
            )));
        }
        Self::over(store, config, root, height, LsMap::new())
    }

    /// A tree over `store` rooted at `root`, with its volatile state (OPQ,
    /// statistics) empty.
    fn over(store: Arc<CachedStore>, config: PioConfig, root: PageId, height: usize, lsmap: LsMap) -> IoResult<Self> {
        store.set_leaf_cache(config.leaf_cache_pages)?;
        Ok(Self {
            opq: OperationQueue::new(config.opq_pages, config.page_size, config.speriod),
            lsmap,
            root,
            height,
            stats: PioStats::default(),
            wal: None,
            next_flush_id: 1,
            next_tx: 1,
            pipeline_depth: config.resolve_pipeline_depth(store.queue_depth_hint()),
            open_brackets: BTreeMap::new(),
            dirty_ops: 0,
            scratch: search::SearchScratch::default(),
            store,
            config,
        })
    }

    /// Attaches a write-ahead log (enables crash recovery).
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// The attached write-ahead log, if any (position/durability hooks for the
    /// engine's cross-shard epoch protocol and its truncation rule).
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Appends the record `build` returns to the WAL, serialised straight into
    /// the log's pending image; without a WAL the record is never built.
    /// Returns the record's LSN. Not durable until the next force.
    fn log(&self, build: impl FnOnce() -> LogRecord) -> Option<Lsn> {
        let wal = self.wal.as_ref()?;
        let record = build();
        Some(wal.append_with(|buf| record.encode_into(buf)))
    }

    /// Forces the WAL and returns its durable LSN (0 without a WAL) — the
    /// per-shard durability ack of the engine's flush-epoch protocol.
    pub fn force_wal(&self) -> IoResult<Lsn> {
        match &self.wal {
            Some(wal) => {
                wal.force()?;
                Ok(wal.durable_lsn())
            }
            None => Ok(0),
        }
    }

    // ------------------------------------------------------------------ accessors --

    /// The tree's configuration.
    pub fn config(&self) -> &PioConfig {
        &self.config
    }

    /// The cached store the tree performs I/O through.
    pub fn store(&self) -> &Arc<CachedStore> {
        &self.store
    }

    /// The current root page id (with [`PioBTree::height`] and the store's
    /// high-water mark, the manifest snapshot a persistent deployment saves so
    /// [`PioBTree::open`] can reopen the tree).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Tree height in levels, including the leaf level (always ≥ 2).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The resolved ticket-pipeline depth of the batched hot paths: how many
    /// `PioMax`-bounded batches stay in flight at once. Resolved at
    /// construction from [`PioConfig::pipeline_depth`] (`Auto` derives it from
    /// the store backend's queue-depth hint; see
    /// [`crate::config::PipelineDepth`]).
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth
    }

    /// Number of internal levels (height − 1).
    fn internal_levels(&self) -> usize {
        self.height - 1
    }

    /// Operation counters.
    pub fn stats(&self) -> PioStats {
        self.stats
    }

    /// Number of operations currently buffered in the OPQ.
    pub fn opq_len(&self) -> usize {
        self.opq.len()
    }

    /// Maximum number of entries the OPQ holds before a flush is forced.
    pub fn opq_capacity(&self) -> usize {
        self.opq.capacity()
    }

    /// Simulated (or wall-clock) I/O time consumed by index I/O, in µs.
    pub fn io_elapsed_us(&self) -> f64 {
        self.store.io_elapsed_us()
    }

    /// Counts the live entries by scanning the whole key space (exact but expensive;
    /// meant for tests and examples).
    pub fn count_entries(&mut self) -> IoResult<u64> {
        Ok(self.range_search(0, Key::MAX)?.len() as u64)
    }

    // ---------------------------------------------------------------- write entry --

    /// Index-insert: appended to the OPQ; a full OPQ triggers one bupdate of `bcnt`
    /// entries.
    pub fn insert(&mut self, key: Key, value: Value) -> IoResult<()> {
        self.enqueue(OpEntry::insert(key, value))
    }

    /// Index-delete.
    pub fn delete(&mut self, key: Key) -> IoResult<()> {
        self.enqueue(OpEntry::delete(key))
    }

    /// Index-update (replace the record pointer of `key`).
    pub fn update(&mut self, key: Key, value: Value) -> IoResult<()> {
        self.enqueue(OpEntry::update(key, value))
    }

    /// Inserts a batch of key/value pairs in order: the whole batch is enqueued
    /// under one borrow, and any OPQ-full flushes triggered along the way run as
    /// usual.
    pub fn insert_batch(&mut self, entries: &[(Key, Value)]) -> IoResult<()> {
        for &(key, value) in entries {
            self.insert(key, value)?;
        }
        Ok(())
    }

    /// The one write entry: applies a batch of arbitrary operations (inserts,
    /// updates, deletes) in order. This is the router-facing entry point of the
    /// sharded engine — batched inserts, and a shard migration's region copy,
    /// dirty-tail replay and retire (a delete of a key the shard never held is
    /// a harmless tombstone).
    ///
    /// With `epoch`, the batch runs inside a cross-shard epoch bracket and the
    /// WAL is forced, so the whole sub-batch is durable when this returns (the
    /// engine's per-shard durability step). The logical records between the
    /// `BatchBegin`/`BatchEnd` markers belong to `epoch`; at recovery,
    /// [`PioBTree::recover_with`] keeps or discards them wholesale according to
    /// the engine's epoch verdict, which is what makes an engine batch
    /// all-or-nothing across shards. Returns the WAL's durable LSN — 0 without
    /// an epoch (nothing is forced) or without a WAL.
    ///
    /// With [`LOCAL_EPOCH`] the bracket is **local**: a batch this shard commits
    /// alone. Nobody delivers a verdict for it — the durable `BatchEnd` *is* the
    /// commit, so a successful return means committed, and the bracket pins
    /// nothing (it opens and closes under one borrow of the tree, so no
    /// checkpoint can cut through it).
    ///
    /// The bracket is closed (and a force attempted) even when the batch fails
    /// mid-way, so every record that did reach the log stays attributable to the
    /// epoch — an unclosed bracket would leak the epoch tag onto later,
    /// unrelated records. A failed *local* batch is closed as aborted
    /// (`BatchAbort`), and the next recovery drops it; in this process its
    /// applied prefix stays queued like any other write, which a retry of the
    /// batch overwrites.
    pub fn apply(&mut self, ops: &[OpEntry], epoch: Option<u64>) -> IoResult<Lsn> {
        if let Some(epoch) = epoch {
            let begun = self.log(|| LogRecord::BatchBegin { epoch });
            if let Some(lsn) = begun.filter(|_| epoch != LOCAL_EPOCH) {
                // Pin WAL truncation below this bracket until the engine delivers
                // the epoch's verdict (the earliest bracket of an epoch wins).
                self.open_brackets.entry(epoch).or_insert(lsn);
            }
        }
        let result = ops.iter().try_for_each(|&op| self.enqueue(op));
        let Some(epoch) = epoch else {
            return result.map(|()| 0);
        };
        self.log(|| match (epoch, &result) {
            (LOCAL_EPOCH, Err(_)) => LogRecord::BatchAbort,
            _ => LogRecord::BatchEnd { epoch },
        });
        // After a failed batch the force is best effort: if it fails too, the
        // records were lost with the crash and recovery discards the epoch
        // anyway.
        let forced = self.force_wal();
        result.and(forced)
    }

    fn enqueue(&mut self, entry: OpEntry) -> IoResult<()> {
        match entry.op {
            OpKind::Insert => self.stats.inserts += 1,
            OpKind::Update => self.stats.updates += 1,
            OpKind::Delete => self.stats.deletes += 1,
        }
        self.stats.opq_appends += 1;
        self.dirty_ops += 1;
        let tx = self.next_tx;
        self.next_tx += 1;
        self.log(|| LogRecord::LogicalRedo { tx, entry });
        if self.opq.append(entry) {
            self.flush_once()?;
        }
        Ok(())
    }

    /// Flushes the entire OPQ (checkpoint / shutdown), then writes a checkpoint record
    /// if a WAL is attached. On error the failing batch stays queued (see
    /// [`PioBTree::flush_once`]).
    ///
    /// Returns the durable LSN of the `Checkpoint` record (0 without a WAL): at
    /// that LSN the OPQ was empty and every flush it describes is complete, so
    /// once the caller has persisted the tree's root snapshot it is a safe WAL
    /// truncation floor ([`PioBTree::truncate_wal`]).
    pub fn checkpoint(&mut self) -> IoResult<Lsn> {
        while !self.opq.is_empty() {
            self.flush_once()?;
        }
        self.dirty_ops = 0;
        let Some(lsn) = self.log(|| LogRecord::Checkpoint) else {
            return Ok(0);
        };
        self.force_wal()?;
        Ok(lsn)
    }

    /// Operations accepted since the last checkpoint. The engine's incremental
    /// checkpoint skips shards where this is 0 and the OPQ is empty — nothing
    /// new would become durable.
    pub fn dirty_ops(&self) -> u64 {
        self.dirty_ops
    }

    /// Appends `decision` — the commit record of an epoch this shard
    /// coordinates ([`LogRecord::EpochCommit`] or [`LogRecord::MigrateCommit`])
    /// — and forces the WAL: the epoch is committed iff the record is durable.
    /// On error the record stays pending, so a later force may still make it
    /// durable: the epoch is undecided until the next recovery.
    pub fn log_decision(&self, decision: LogRecord) -> IoResult<()> {
        self.log(|| decision);
        self.force_wal().map(|_| ())
    }

    /// Delivers the engine's verdict for cross-shard epoch `epoch`: its bracket
    /// no longer pins WAL truncation. Unknown epochs are ignored (the shard may
    /// never have seen the epoch, or a restart already cleared the bracket).
    pub fn resolve_epoch(&mut self, epoch: u64) {
        self.open_brackets.remove(&epoch);
    }

    /// Truncates the attached WAL to `upto` (normally a checkpoint LSN from
    /// [`PioBTree::checkpoint`]) — unless a still-unresolved epoch bracket
    /// opened below it, in which case the log is left whole. Cutting down to
    /// that bracket's `BatchBegin` is not enough: a flush between the bracket
    /// and `upto` wrote the epoch's records *and* older unbracketed ones, and
    /// if the epoch is then discarded recovery unwinds that flush and
    /// re-queues every record it covered from the log, which must still hold
    /// the older ones. Returns the logical bytes dropped (0 without a WAL).
    pub fn truncate_wal(&mut self, upto: Lsn) -> IoResult<u64> {
        let Some(wal) = &self.wal else {
            return Ok(0);
        };
        if self.open_brackets.values().any(|&pinned| pinned < upto) {
            return Ok(0);
        }
        wal.truncate_to(upto)
    }

    /// Bytes of durable WAL a recovery of this tree would replay (0 without a
    /// WAL) — the quantity checkpoint-anchored truncation keeps bounded.
    pub fn wal_replayable_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.replayable_bytes())
    }

    // ----------------------------------------------------------------- validation --

    /// Verifies structural invariants (internal-node sortedness, separator bounds,
    /// leaf key ranges, LSMap consistency — a fenced leaf must be strictly
    /// ascending inserts whose segments start at its fences) and returns the
    /// number of live entries.
    /// Queued OPQ entries are not considered. Intended for tests.
    pub fn check_invariants(&self) -> IoResult<u64> {
        fn visit(tree: &PioBTree, page: PageId, level: usize, lo: Option<Key>, hi: Option<Key>) -> IoResult<u64> {
            if level == tree.internal_levels() {
                // Leaf region.
                let page_size = tree.config.page_size;
                let tiles = tree.read_leaves(&[(page, tree.config.leaf_segments as u64)])?;
                let leaf = PioLeaf {
                    segments: tree.config.leaf_segments,
                    records: LeafView::new(page, &tiles, page_size)?.records().collect(),
                };
                for rec in &leaf.records {
                    if let Some(lo) = lo {
                        assert!(rec.key >= lo, "leaf record {} below bound {lo}", rec.key);
                    }
                    if let Some(hi) = hi {
                        assert!(rec.key < hi, "leaf record {} above bound {hi}", rec.key);
                    }
                }
                if let Some(cached) = tree.lsmap.get(page) {
                    assert_eq!(
                        cached,
                        leaf.last_segment(page_size),
                        "LSMap out of date for leaf {page}"
                    );
                }
                if let Some(fences) = tree.lsmap.fences(page) {
                    assert!(
                        leaf.records.iter().all(|e| e.op == OpKind::Insert)
                            && leaf.records.windows(2).all(|w| w[0].key < w[1].key),
                        "fenced leaf {page} is not strictly ascending inserts"
                    );
                    let mut firsts = Vec::new();
                    let segments = tiles.iter().flat_map(|tile| tile.chunks_exact(page_size));
                    for segment in segments.skip(1).take(leaf.last_segment(page_size) as usize) {
                        firsts.push(
                            LeafView::new(page, &[segment], page_size)?
                                .records()
                                .next()
                                .map(|e| e.key),
                        );
                    }
                    assert_eq!(
                        firsts,
                        fences.map(Some).collect::<Vec<_>>(),
                        "stale segment fences for leaf {page}"
                    );
                }
                return Ok(leaf.resolve().len() as u64);
            }
            let node = InternalView::new(page, &tree.store.read_page(page)?)?.to_owned();
            assert_eq!(node.children.len(), node.keys.len() + 1, "internal arity");
            assert!(node.keys.windows(2).all(|w| w[0] < w[1]), "internal keys sorted");
            let mut total = 0;
            for (i, &child) in node.children.iter().enumerate() {
                let child_lo = if i == 0 { lo } else { Some(node.keys[i - 1]) };
                let child_hi = if i == node.keys.len() { hi } else { Some(node.keys[i]) };
                total += visit(tree, child, level + 1, child_lo, child_hi)?;
            }
            Ok(total)
        }
        visit(self, self.root, 0, None, None)
    }
}

#[cfg(test)]
mod tests;
