//! # btree — the baseline disk B+-tree (and its concurrent wrapper)
//!
//! This crate implements the comparison baseline used throughout the paper's
//! evaluation: a textbook disk-resident B+-tree whose nodes are single pages of a
//! [`storage::CachedStore`], driven by conventional synchronous I/O (one node read
//! at a time along the root-to-leaf path) and a write-back buffer manager.
//!
//! It also provides:
//!
//! * a bulk loader ([`bulk::bulk_load`]) used to build the initial 8 GiB-scale index
//!   of Section 4.1 (scaled down in this reproduction), and
//! * [`blink::ConcurrentBTree`], the concurrent baseline of Figure 13(b). The paper
//!   uses a Lehman–Yao B-link tree; here concurrency is modelled by running the
//!   per-round operations of the emulated client threads as batched traversals while
//!   preserving the B-link tree's cost structure (write-back buffer manager, hence
//!   interleaved reads and writes). See the module documentation for the exact
//!   modelling assumptions.
//!
//! Keys and values are `u64` (a key and a data-page id form the 16-byte index record
//! of the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blink;
pub mod bulk;
pub mod node;
pub mod tree;

pub use blink::ConcurrentBTree;
pub use bulk::bulk_load;
pub use node::{InternalNode, InternalView, Key, LeafNode, Node, Value};
pub use tree::{BPlusTree, TreeStats};
