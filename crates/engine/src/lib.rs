//! # engine — the sharded PIO engine
//!
//! The PIO B-tree (Roh et al., PVLDB 2011) exploits SSD-internal parallelism
//! *within* one tree: MPSearch, prange search and batch updates all issue psync
//! calls of up to `PioMax` outstanding I/Os. But a single tree still has one root,
//! one operation queue and one psync stream, so everything above the I/O layer is
//! serialised. This crate multiplies the paper's parallelism one level up:
//!
//! * [`ShardedPioEngine`] partitions the key space across `N` independent
//!   [`pio_btree::PioBTree`] shards, each with its own
//!   [`storage::CachedStore`], OPQ and (optional) WAL — one "index file" per shard,
//!   the layout the paper's Figure 4(b) shows behaves like independent psync
//!   streams;
//! * a **router** runs a `multi_search` / `insert_batch` / `range_search` that
//!   one shard owns like a single-key call, and splits one that spans shards by
//!   shard, locks the member trees in ascending shard order and runs the pieces
//!   in turn — all on the caller's thread — then stitches the results back into
//!   caller order (see *Threading model* below);
//! * a **background maintenance worker** drains shard OPQs once they are half
//!   full, moving bupdate flushes off the foreground critical path;
//! * [`EngineStats`] aggregates per-shard [`pio_btree::PioStats`], buffer-pool hit
//!   ratios and store counters, and separates *device work* (`total_io_us`) from
//!   the *schedule makespan* (`scheduled_io_us`) so the cross-shard overlap win is
//!   directly measurable;
//! * engine-wide **memory budgets**, both divided across shards: the pool
//!   (`base.pool_pages`) caches internal nodes, which every descent walks
//!   before it issues I/O, and [`EngineConfig`]'s `leaf_cache_bytes` gives
//!   leaf regions a scan-resistant segmented-LRU cache (validated non-zero
//!   and page-multiple); both roll up in [`EngineStats`]
//!   (`inner_tier_hit_rate` — descents the pool answered whole —
//!   and `leaf_cache_hit_rate`);
//! * shard boundaries are chosen from a key sample at construction time
//!   (quantiles, topped up with uniform cuts), so a skewed key population still
//!   loads balanced shards.
//!
//! ## Threading model
//!
//! An engine runs no thread but the maintenance worker, and that one only when
//! [`EngineConfig::maintenance_interval_ms`] is set: every call runs on the
//! thread that made it. The paper gets the device's parallelism from one
//! process — a psync call keeps many requests outstanding from one thread — so
//! threads are not what reaches the channels. Nothing inside a tree is
//! lock-free: every [`pio_btree::PioBTree`] entry point takes `&mut self` and
//! every shard tree sits behind its own mutex.
//!
//! * **Single-key calls** (`search`, `insert`, `update`, `delete`) lock the
//!   owning shard's tree and run — and so does a **batched call one shard
//!   owns** (every key of a `multi_search` or `insert_batch` routes to it, a
//!   `range_search` lies inside it): no partition, no fan-out. This is every
//!   call a service front end makes, which bins its batches by shard.
//! * **Batched calls that span shards** lock every member shard's tree in
//!   ascending shard order, then run each shard's piece in turn, lowest shard
//!   first, letting each shard go as soon as its piece is done. A piece that
//!   panics is caught; the pieces after it still run, and the panic is
//!   re-raised on the caller. A spanning `insert_batch`'s commit force (below)
//!   follows once every piece is acked. **Background work** — maintenance
//!   flush passes, checkpoints, recovery — fans out the same way, on the
//!   maintenance worker or on whoever called it.
//! * **Ordering between concurrent batches.** A call holds all its members'
//!   locks before its first piece runs, and takes them lowest shard first, so
//!   concurrent batched calls that share **two or more** shards are ordered
//!   the same way on every shard they share: if batch A is ahead of batch B on
//!   one shard it is ahead of B on every shard they share, two overlapping
//!   `insert_batch`es end with the same winner everywhere, and no two calls
//!   can wait on each other. A call one shard owns shares no second shard with
//!   anyone, so there is no order to break. That is the *only* ordering the
//!   engine gives concurrent batches: they are crash-atomic (below), not
//!   isolated — a reader may see one batch applied on one shard and not yet on
//!   another.
//! * **Shutdown.** Dropping the engine stops and joins the maintenance worker
//!   first, and only then frees the shards.
//!
//! ## Storage topology
//!
//! *Where* the shards live is a first-class, pluggable decision: engines are
//! constructed through one [`EngineBuilder`] over a [`ShardProvisioner`]
//! topology (the [`topology`] module):
//!
//! | topology | placement | what it shows |
//! |---|---|---|
//! | [`DevicePerShard`] | one simulated device per shard (default) | Figure 4(b)'s separate-file layout: free cross-shard overlap |
//! | [`SharedDevice`] | all shards as [`pio::PartitionIo`] partitions of **one** device | the paper's real claim — shards contending for one SSD's channels and host interface |
//! | [`RealFiles`] | one real file per shard + persisted manifest ([`pio::FileThreadPoolIo`]) | a persistent engine: survives the process, reopens via [`EngineBuilder::recover`] |
//! | [`EngineBackends`] (hand-built) | caller-supplied queues | the crash-injection seam of the recovery tests ([`pio::FaultIo`] wrappers) |
//!
//! ```
//! use engine::{EngineBuilder, EngineConfig, SharedDevice};
//!
//! let entries: Vec<(u64, u64)> = (0..10_000).map(|k| (k, k)).collect();
//! let engine = EngineBuilder::new(EngineConfig::default())
//!     .topology(SharedDevice) // all shards on ONE simulated SSD
//!     .entries(&entries)
//!     .build()
//!     .unwrap();
//! assert_eq!(engine.stats().topology, "shared-device");
//! ```
//!
//! A [`RealFiles`] engine persists an [`EngineManifest`] (shard boundaries plus
//! each shard's superblock: root, height, allocation frontier) at creation,
//! checkpoints, maintenance flushes and recovery; [`EngineBuilder::recover`]
//! reopens the directory, restores the snapshots and replays the WALs — root
//! growths and page allocations that happened after the last manifest sync are
//! rolled forward from the logs' `FlushRoot`/`FlushAlloc` records.
//!
//! ## Cross-shard crash recovery
//!
//! Each shard recovers from its own WAL (Section 3.4 of the paper), but a
//! batched insert fans one logical batch out to several shards — so with WALs
//! enabled, every [`ShardedPioEngine::insert_batch`] that **spans shards** runs
//! as a **flush epoch**, a presumed-abort two-phase commit whose coordinator is
//! also a participant (Mohan, Lindsay & Obermarck, TODS 1986). Round 1: each
//! member shard appends its sub-batch inside an epoch bracket of its own WAL
//! and forces it. Round 2: the *coordinator* — the lowest member shard —
//! appends an `EpochCommit` record to its own WAL and forces it. That is three
//! forces in two rounds for a two-shard batch, and the engine keeps no log of
//! its own. [`ShardedPioEngine::recover`] reads each shard WAL once: every
//! shard's analysis step collects its brackets and commit records, then each
//! shard replays what its analysis read, keeping exactly the epochs whose
//! commit survives — making the batch all-or-nothing across shards wherever
//! the crash lands:
//!
//! | crash point | coordinator's log | recovery outcome |
//! |---|---|---|
//! | before its `EpochCommit` is whole (mid fan-out, the commit force fails, or is torn) | no `EpochCommit` | epoch **discarded** on every shard: logical records dropped, and any flush that already applied them is unwound from its undo records |
//! | after its `EpochCommit` is whole | `EpochCommit` | normal per-shard replay — fully present |
//! | a local bracket (below) | — | unchanged: decided by the shard's own log |
//!
//! A batch whose keys all land on **one** shard needs none of this: it runs as
//! a *local bracket* of that shard's WAL (`BatchBegin`/`BatchEnd` under
//! [`pio_btree::LOCAL_EPOCH`]) that the shard's single force commits — no
//! commit record, no second force. Recovery decides it inside the shard's
//! own replay, without a verdict from the engine:
//!
//! | crash point | shard log state | recovery outcome |
//! |---|---|---|
//! | inside the bracket (its force fails, or is torn before the `BatchEnd` is whole; a flush inside it may have forced part of it) | `BatchBegin`, some records | bracket **aborted**: records dropped, a flush that applied them unwound, and the bracket closed durably *as aborted* (`BatchAbort`) so the next restart agrees — absent |
//! | `apply` failed mid-batch in process, then the crash | `BatchBegin`, records, `BatchAbort` | **aborted**, as above |
//! | after the `BatchEnd` is durable | complete | replayed like any unbracketed record — fully present |
//!
//! Nothing is ever re-driven: a torn commit force either left a whole
//! `EpochCommit` or it did not, and without one the batch *might* be missing on
//! some shard, so the whole epoch is dropped (presumed abort). Either way no
//! partial batch is ever visible after recovery — the property `tests/engine_recovery.rs` checks for scripted
//! crash points and hundreds of randomized ones against an in-memory oracle,
//! using the [`pio::fault`] crash-injection harness.
//!
//! ## Log lifecycle
//!
//! Left alone, the shard WALs grow without bound and
//! every recovery rescans the store's whole history. The engine closes the
//! loop with **checkpoint-anchored truncation**
//! ([`ShardedPioEngine::checkpoint`]):
//!
//! 1. **Incremental checkpoint** — per-shard dirty tracking
//!    ([`pio_btree::PioBTree::dirty_ops`]) selects only the shards that logged
//!    or queued work since their last checkpoint; clean shards are untouched,
//!    so the maintenance worker can run the whole thing on a timer
//!    ([`EngineConfig::checkpoint_interval_ms`]) under live traffic.
//! 2. **Anchored truncation** — once the flushes are durable and the manifest
//!    is synced (the superblocks recovery would need), each flushed shard's
//!    WAL drops everything below its new `Checkpoint` record via
//!    [`storage::Wal::truncate_to`] (an alternating-slot, checksummed header
//!    flip: a crash mid-truncation leaves the old head or the new one, never
//!    a torn in-between). Two epoch rules hold it back. An undecided epoch's
//!    open bracket pins its shard's whole log. And a commit record outlives
//!    every bracket of its epoch: recovery asks about every surviving
//!    bracket, even one below a `Checkpoint` record, so the coordinator cuts
//!    its log no further than the checkpoint before its oldest commit that is
//!    not yet *settled* — some other member's log still holds the epoch's
//!    bracket. An epoch settles once every member's log is truncated past it.
//! 3. **Bounded recovery** — [`ShardedPioEngine::recover`] seeks each log to
//!    its truncation marker instead of byte 0, so the records it scans
//!    ([`EngineStats::recovery_replayed_records`]) track the work done since
//!    the last checkpoint, not the store's age. On [`RealFiles`], truncation
//!    also compacts the log region and shrinks the files on disk, so a
//!    write/checkpoint loop holds [`EngineStats::replayable_log_bytes`] at a
//!    per-round constant.
//!
//! What reaches a log between checkpoints is proportional to what changed: an
//! entry bupdate appends to a leaf costs its 34-byte redo record plus a
//! 28-byte undo record per touched segment, not a page pre-image.
//! `tests/log_lifecycle.rs` pins all of this (≤ 256 B of log per entry); the
//! crash sweeps in `tests/engine_recovery.rs` land crash points before, during
//! and after the truncation-marker writes and verify no acked write is ever
//! lost.
//!
//! ## Elastic shard management
//!
//! Boundaries picked from a build-time key sample go stale under append-heavy
//! or skew-shifting traffic. The [`rebalance`] module keeps them live: a load
//! monitor (per-shard routed ops + OPQ queue pressure, also surfaced in
//! [`ShardSnapshot`]), a split/merge policy ([`rebalance::plan`]) and a
//! migration executor that moves a leaf region between adjacent shards as a
//! crash-recoverable epoch — region copies and retires bracketed in both
//! shards' WALs, then the source shard forces the boundary-swap
//! `MigrateCommit{src,dst,range}` in its own WAL: that record *is* the swap.
//! Reads and writes keep flowing throughout
//! (the moving range is dual-resolved, old shard authoritative until commit),
//! and recovery rolls an uncommitted migration back on both shards. Drive it
//! with [`ShardedPioEngine::rebalance_once`] or let the maintenance worker
//! tick it via [`RebalanceConfig::auto`]; knobs live in
//! [`EngineConfig::rebalance`] and are validated with the rest of the
//! configuration. See the [`rebalance`] module docs for the lifecycle diagram.
//!
//! ## Transient-fault tolerance
//!
//! Every shard queue — store and WAL — is wrapped in
//! [`pio::ResilientIo`] under one fixed [`EngineConfig::retry_policy`]:
//! transient failures are retried with deterministic exponential backoff, at
//! most 3 times and within a 50 ms per-ticket budget (backoff is *accounted*
//! into the queue's simulated I/O time, never slept). Page checksums are verified on every
//! device fetch, and the maintenance worker re-verifies a bounded slice of
//! each shard's pages per [`EngineConfig::scrub_interval_ms`] tick, healing
//! persistent rot from pooled copies that still verify. Three consecutive
//! device-class failures on a shard — of single-key calls or of its legs of
//! batched ones, which are all a service front end issues — open the shard's
//! **health breaker**: single-key writes, and whole `insert_batch`es with a
//! sub-batch for the shard, are rejected up front with a clean retryable
//! error, reads still try the caches — and the next maintenance probe closes
//! it once the device answers again. The
//! service front end — which runs on its clients' threads and adds none of
//! its own — adds per-request deadlines on every wait for a batch another
//! client runs ([`EngineConfig::request_deadline_ms`]) and load shedding once
//! too many admitted requests are unanswered
//! ([`EngineConfig::admission_queue_limit`]). Observability:
//! [`EngineStats::io_retries`], [`EngineStats::io_give_ups`],
//! [`EngineStats::integrity`], [`EngineStats::degraded_shards`],
//! [`EngineStats::breaker_opens`] / [`EngineStats::breaker_closes`].
//! `tests/resilience.rs` soaks the whole stack under seeded fault injection
//! ([`pio::TransientFaults`]: error rates, latency spikes, read bit flips)
//! across mixed traffic, a forced split and a checkpoint, and asserts ≥ 99 %
//! success, no acked write lost, no wrong value, the breaker's open → probe →
//! close cycle and scrub healing injected rot.
//!
//! ## Quick example
//!
//! ```
//! use engine::{EngineConfig, ShardedPioEngine};
//! use pio_btree::PioConfig;
//! use ssd_sim::DeviceProfile;
//!
//! let config = EngineConfig::builder()
//!     .shards(4)
//!     .profile(DeviceProfile::P300)
//!     .base(PioConfig::builder().page_size(2048).pool_pages(512).build())
//!     .build();
//! let entries: Vec<(u64, u64)> = (0..10_000).map(|k| (k, k * 10)).collect();
//! let engine = ShardedPioEngine::bulk_load(config, &entries).unwrap();
//! assert_eq!(engine.search(1234).unwrap(), Some(12340));
//! let hits = engine.multi_search(&[1, 9_999, 20_000]).unwrap();
//! assert_eq!(hits, vec![Some(10), Some(99_990), None]);
//! let stats = engine.stats();
//! assert!(stats.scheduled_io_us <= stats.total_io_us);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
mod commit;
pub mod config;
mod maintenance;
mod migrate;
pub mod rebalance;
mod recovery;
mod routing;
mod scheduler;
mod shard;
pub mod sharded;
pub mod stats;
pub mod topology;

pub use builder::EngineBuilder;
pub use config::{EngineConfig, EngineConfigBuilder, RebalanceConfig};
pub use rebalance::{MoveKind, RebalanceOutcome, RebalancePlan, ShardLoad};
pub use recovery::EngineRecoveryReport;
pub use sharded::{boundaries_from_sample, ShardedPioEngine};
pub use stats::{EngineStats, ShardSnapshot};
pub use topology::{
    DevicePerShard, EngineBackends, EngineManifest, ProvisionMode, RealFiles, ShardMeta, ShardProvisioner, SharedDevice,
};
