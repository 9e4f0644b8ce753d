//! # pio-btree — the PIO B-tree (Parallel I/O B-tree)
//!
//! This crate is the paper's primary contribution: a B+-tree variant that exploits
//! the internal parallelism of flash SSDs (Roh et al., *B+-tree Index Optimization by
//! Exploiting Internal Parallelism of Flash-based Solid State Drives*, PVLDB 5(4),
//! 2011). It integrates:
//!
//! * **MPSearch** (Section 3.1.1) — multi-path search that traverses the tree level
//!   by level, fetching up to `PioMax` nodes per level with one psync I/O call;
//! * **prange search** (Section 3.1.2) — range search as an MPSearch over the key
//!   range, so leaf nodes are fetched in parallel instead of one at a time along the
//!   leaf chain;
//! * **the Operation Queue (OPQ)** and **batch update / bupdate** (Section 3.1.3) —
//!   updates are buffered in memory, merge-sorted every `speriod` appends, and
//!   applied in batches that read and write all affected nodes via psync I/O,
//!   propagating fence keys level by level;
//! * **asymmetric leaf nodes** built from **Leaf Segments** with an append-only
//!   record format, the in-memory **LSMap**, and the **shrink** operation
//!   (Section 3.2.2);
//! * **the cost model** (Sections 3.2.1, 3.5, Appendix) with the optimal-node-size
//!   and `(L_opt, O_opt)` auto-tuning procedure of Section 3.6;
//! * **crash recovery** (Section 3.4) — logical redo logs, flush event and flush undo
//!   logs over a write-ahead log, a no-steal OPQ flush policy and an ARIES-style
//!   redo/undo recovery pass.
//!
//! Every entry point takes `&mut self`, so the paper's deliberately simple
//! concurrency (Section 4: the OPQ and the index locked exclusively while they
//! change) is one lock around the tree, held by the caller — the sharded
//! engine keeps one per shard.
//!
//! ## Depth-adaptive ticket pipelines
//!
//! Every batched hot path (the `locate_leaves` descent, multi-search and
//! prange leaf fetches, bupdate's Phase-A prefetch, bulk-load region writes)
//! keeps up to [`PioConfig::pipeline_depth`] batches in flight through the
//! ticketed store tier. The default, [`config::PipelineDepth::Auto`], resolves
//! at construction from the store backend's
//! [`pio::IoQueue::queue_depth_hint`]: `ceil(hint / PioMax)` in-flight
//! `PioMax`-sized batches — enough to fill the device's command queue, the
//! Figure-3 headroom — clamped to `[2, 16]`. The descent caps its lookahead at
//! `treeHeight − 1` batches, preserving the paper's
//! `PioMax · (treeHeight − 1)` buffer bound, and every pipeline drains its
//! in-flight tickets before surfacing an error
//! (`tests/io_queue_equivalence.rs` kills the backend at random read and write
//! indices mid-pipeline and checks no ticket outlives its operation). The
//! `fig03b_pipeline_depth` bench sweeps depths 1/2/4/8/`Auto`: multi-search
//! reaches ≈1.5× its depth-2 throughput on the P300 (NCQ 32, `Auto` = 4 at
//! `PioMax` 8) and ≈2.3× on a high-NCQ device (`Auto` = 16), monotone in
//! depth, while the insert path — dominated by cell programming — stays within
//! a few percent either way (both asserted).
//!
//! ## One cache for every level
//!
//! Internal nodes live where the paper caches them (Section 3.3): in the
//! store's buffer pool, its *page class*, under [`PioConfig::pool_pages`].
//! Every descent — point search, multi-search, prange, bupdate — first walks
//! the resident internal nodes under one cache lock
//! (`mpsearch::walk_resident`) and hands the whole call to the ticketed
//! `locate_leaves` wavefront at the first node that is not resident (startup,
//! after a crash, a pool too small for the internal levels). The tree keeps
//! no copy of its own, so nothing needs rebuilding or invalidating: a write
//! installs the new image, a free or a crash drops it.
//! [`PioConfig::leaf_cache_pages`] enables the store's scan-resistant *region
//! class* — a second instance of the one [`storage::Cache`], for multi-page
//! leaf regions ([`storage::CachedStore::set_leaf_cache`]) — so a warm tree
//! can serve hot point lookups without any I/O while `range_search` streams
//! bypass the cache's admission. It defaults to 0 (off), preserving the
//! paper-faithful I/O pattern. The `fig09_leaf_cache` bench asserts that at an
//! equal memory budget on one shared device, pool + region class serve a
//! skewed multi-search ≥ 1.2× faster than the pool alone (single-page caching
//! cannot hold multi-page leaf regions); `tests/inner_tier.rs` covers the
//! resident walk against the wavefront, crash and migration coherence, and
//! the scan-resistance floor.
//!
//! ## The read path touches a page's bytes once
//!
//! A page or leaf region comes out of the store as a shared, immutable
//! [`storage::PageImage`] — the image the cache verified and keeps, not a copy
//! — and is searched where it lies: [`btree::InternalView`] binary-searches an
//! internal node's encoded keys, [`leaf::LeafView`] scans a leaf's segments
//! newest-first for a key's latest record and emits a still-sorted leaf
//! straight into a range result. Both views validate their header once and
//! return [`pio::IoError::Corruption`] for bytes that do not parse — nothing
//! read from a device can panic the tree. The owned forms
//! ([`btree::InternalNode`], [`leaf::PioLeaf`]) are for the paths that mutate
//! a node — shrink, split, fence insert — and are collected from the views,
//! so each format has one parser. What a batched call needs besides its
//! result (sort order, sorted keys, the [`mpsearch::Descent`] with every key's
//! leaf and path in one flat array, a chunk's region list) lives in scratch
//! buffers the tree keeps between calls: a warm `multi_search` allocates its
//! result and a read ticket's slot vector, nothing per key.
//!
//! ## Quick example
//!
//! ```
//! use pio_btree::{PioBTree, PioConfig};
//! use ssd_sim::DeviceProfile;
//!
//! // A PIO B-tree over a simulated Micron P300 with 4 KiB pages, leaf nodes of
//! // 2 segments and a 16-page operation queue.
//! let config = PioConfig::builder()
//!     .page_size(4096)
//!     .leaf_segments(2)
//!     .opq_pages(16)
//!     .build();
//! let mut tree = PioBTree::create(DeviceProfile::P300, 1 << 30, config).unwrap();
//! for key in 0..10_000u64 {
//!     tree.insert(key, key * 10).unwrap();
//! }
//! assert_eq!(tree.search(1234).unwrap(), Some(12340));
//! let range = tree.range_search(100, 200).unwrap();
//! assert_eq!(range.len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod entry;
pub mod leaf;
pub mod lsmap;
pub mod mpsearch;
pub mod opq;
pub mod recovery;
pub mod tree;

pub use config::{PioConfig, PioConfigBuilder, PipelineDepth};
pub use cost::{recommended_shards, CostModel, ShardTuning, WorkloadMix};
pub use entry::{OpEntry, OpKind};
pub use leaf::{LeafView, PioLeaf};
pub use lsmap::LsMap;
pub use mpsearch::Descent;
pub use opq::OperationQueue;
pub use recovery::{LogRecord, RecoveryReport, LOCAL_EPOCH};
pub use tree::{PioBTree, PioStats};
