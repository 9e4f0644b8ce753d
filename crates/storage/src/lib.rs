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
//! * [`Cache`] — the one cache implementation: a weighted segmented LRU with a
//!   scan bypass and dirty tracking, which with a protected share of zero is a
//!   plain LRU.
//! * [`CachedStore`] — what index code talks to: the store behind **two
//!   classes** of that cache and **one region path**. The *page class* is the
//!   paper's buffer pool (its size is swept in Figure 9 and traded off against
//!   the operation queue in Figure 11) under a write-back or write-through
//!   [`WritePolicy`]; the optional *region class* keeps multi-page leaf regions,
//!   whose reads carry an [`AccessHint`] so `range_search` streams cannot evict
//!   the point-lookup working set. `submit_read` / `submit_write` route each
//!   region to its class by its length, keep the classes coherent, and verify
//!   every device-fetched image against the [`integrity`] sidecar.
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

pub use cache::{AccessHint, Cache, CacheStats, Evicted};
pub use cached::{CachedReadTicket, CachedStore, CachedWriteTicket, ResidentPages, WritePolicy};
pub use integrity::{IntegrityStats, ScrubReport};
pub use page::{PageId, PageImage, INVALID_PAGE};
pub use store::{PageStore, ReadTicket, StoreStats, WriteTicket};
pub use wal::{Lsn, RescanReport, Wal, WalRecord, WalScan};
