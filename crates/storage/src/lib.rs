//! # storage — page store, one cache and write-ahead log
//!
//! The indexes in this repository (the baseline B+-tree, the B-link tree, BFTL, the
//! FD-tree and the PIO B-tree itself) all sit on the same storage substrate. Its
//! unit is the **region** — `n` consecutive pages addressed by the first
//! [`PageId`] — and a page is a one-page region: an internal node is one page, a
//! PIO leaf is `L` pages read with one large request (Section 3.2.2).
//!
//! * [`PageStore`] — a flat page space over a [`pio::IoQueue`] backend: page
//!   allocation plus one ticketed read ([`PageStore::submit_read`]) and one
//!   ticketed write ([`PageStore::submit_write`]) over batches of regions, each
//!   batch one psync call that index hot paths can keep in flight beside others.
//! * [`Cache`] — the one cache: a segmented LRU of pages with a scan bypass
//!   and dirty tracking, every entry one page keyed by its [`PageId`] and
//!   tagged with its [`PageClass`] — inner pages are evicted only when no
//!   leaf page is left. A hit is one index probe, a reference-count bump and
//!   an O(1) relink.
//! * [`CachedStore`] — what index code talks to: the store behind that one
//!   cache and **one region path**, under one budget — the paper's buffer
//!   pool (its size is swept in Figure 9 and traded off against the
//!   operation queue in Figure 11), to which an optional leaf budget only
//!   adds pages. The caller names the [`PageClass`] of what it reads or
//!   writes — an internal node's page is inner, every leaf page is a leaf
//!   page, whatever the budgets; a region read probes each of its pages and
//!   fetches only the missing ones. Page writes follow a write-back or
//!   write-through [`WritePolicy`]. Leaf reads carry an [`AccessHint`], so
//!   `range_search` streams cannot evict the point-lookup working set. Every
//!   device-fetched image is verified against the [`integrity`] sidecar.
//! * [`Wal`] — an append-only write-ahead log used by the PIO B-tree's crash
//!   recovery (Section 3.4).
//!
//! Everything is expressed in terms of logical [`PageId`]s; the mapping to byte
//! offsets is `page_id × page_size`, so a `PageStore` corresponds to one index file
//! in the paper's setup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cached;
pub mod integrity;
pub mod page;
pub mod store;
pub mod wal;

pub use cache::{Cache, CacheStats, Evicted, PageClass};
pub use cached::{
    next_region, AccessHint, CachedReadTicket, CachedStore, CachedWriteTicket, ResidentPages, WritePolicy,
};
pub use integrity::{IntegrityStats, ScrubReport};
pub use page::{new_image, PageId, PageImage, INVALID_PAGE};
pub use store::{PageStore, ReadTicket, StoreStats, WriteTicket};
pub use wal::{Lsn, Wal, WalRecord, WalScan};
