//! # flash-indexes — the flash-aware baselines of the paper's evaluation
//!
//! Figure 12 compares the PIO B-tree against two earlier flash-aware indexes:
//!
//! * **BFTL** (Wu, Kuo, Chang — *An efficient B-tree layer implementation for
//!   flash-memory storage systems*): index records ("index units") are buffered and
//!   appended to log pages shared by many nodes; an in-memory node translation table
//!   maps every B-tree node to the list of log pages holding its units, so a node
//!   read costs several page reads while writes are batched and cheap. The paper
//!   notes that BFTL's mapping table consumes the entire memory budget, leaving no
//!   room for a buffer pool.
//! * **FD-tree** (Li, He, Yang, Luo, Yi — *Tree indexing on solid state drives*): an
//!   in-memory head tree plus a cascade of sorted runs on flash with a fixed size
//!   ratio between adjacent levels; inserts go to the head and ripple down through
//!   sequential merges, searches probe one page per level via fence pointers.
//!
//! Both implementations here are clean-room simplifications that preserve the cost
//! structure the comparison depends on, driven by the same
//! [`storage::CachedStore`] substrate as the other trees and therefore measured in
//! the same simulated time.
//!
//! These baselines deliberately stay on the *blocking* psync calls
//! ([`pio::IoQueue::psync_read`] and friends, submit-and-wait): their
//! defining costs are one-page-at-a-time synchronous reads (BFTL's log-page
//! chains) and sequential merge writes (the FD-tree predates psync I/O), so
//! migrating them to overlapped in-flight tickets would change the very cost
//! structure the Figure-12 comparison measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bftl;
pub mod fdtree;

pub use bftl::{Bftl, BftlConfig, BftlStats};
pub use fdtree::{FdTree, FdTreeConfig, FdTreeStats};
