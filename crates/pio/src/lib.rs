//! # pio — submission/completion I/O for the PIO B-tree
//!
//! Section 2.3 of the PIO B-tree paper defines **psync I/O**: an I/O primitive that
//! submits an *array* of requests at once, keeps the group together all the way to
//! the I/O scheduler, and blocks the caller until every request in the group has
//! completed. The paper *emulates* it with Linux libaio — `io_submit` followed by a
//! full-wait `io_getevents` — which means the blocking call is a convenience
//! wrapper over an inherently asynchronous **submission/completion** interface.
//!
//! This crate models the I/O layer the same way, as one contract, [`IoQueue`]:
//! [`IoQueue::submit_read`] / [`IoQueue::submit_write`] hand a whole batch to the
//! device and return a [`Ticket`]; [`IoQueue::wait`] reaps the [`Completion`]
//! (one shared image per read request + [`BatchStats`]).
//! A caller may hold several tickets in flight and wait on them in any order;
//! batches outstanding together **overlap on the device** and contend for its
//! channels and host interface.
//! The paper's blocking psync call is [`IoQueue::psync_read`] /
//! [`IoQueue::psync_write`], provided on every queue as submit-then-wait —
//! exactly how the paper builds it out of `io_submit`/`io_getevents`.
//!
//! Two backends implement [`IoQueue`]:
//!
//! * [`SimPsyncIo`] — the simulated SSD. Its [`Discipline`] is how the host
//!   drives the device, the three methods Section 2.3 and Figure 4 of the
//!   paper compare:
//!   * [`Discipline::Psync`] (what [`SimPsyncIo::with_profile`] builds) — the
//!     faithful psync backend: a submission is one NCQ window of the [`ssd_sim`]
//!     device, and concurrently outstanding tickets join a shared scheduling
//!     window with a common start time (the shared-device contention model of
//!     Figure 4).
//!   * [`Discipline::Sync`] — conventional synchronous I/O: every request is its
//!     own device submission. This is what a textbook B+-tree uses and is the
//!     baseline of every comparison in the paper.
//!   * [`Discipline::Threads`] — "parallel processing": one thread per
//!     outstanding I/O. It models the POSIX per-file write-ordering lock that
//!     serialises writes to a shared file (Figure 4 a), behaves like psync I/O
//!     on separate files (Figure 4 b), and pays an order of magnitude more
//!     context switches (Figure 4 c).
//! * [`FileThreadPoolIo`] — a real-file backend: a persistent pool of positional
//!   I/O workers drains a shared job queue, tickets complete in any order, and a
//!   reaped write ticket is durable.
//!
//! All backends work behind `&self` (interior mutability), so a single backend can
//! be shared by the concurrent index variants and by multiple submitters holding
//! interleaved tickets.
//!
//! [`PartitionIo`] layers on top of any backend: it exposes a disjoint address
//! range of a shared queue as a queue of its own (offset translation, partition-
//! local bounds, per-partition [`IoStats`]), which is how the engine's
//! shared-device topology places many shards on one simulated SSD.
//!
//! ## Pipelining support
//!
//! Drivers that keep several tickets in flight size their lookahead from
//! [`IoQueue::queue_depth_hint`] — the number of outstanding requests the
//! backend can usefully absorb (the device's NCQ depth under psync I/O, the
//! worker count for [`FileThreadPoolIo`], 1 for the ticket-serialising
//! disciplines) — and run the in-flight window through
//! [`ring::run_pipeline`] over a [`TicketRing`] (a small FIFO with the
//! drain-on-error discipline). The simulated backend models
//! submission causality for such drivers: a batch submitted after a completion
//! was reaped is floored at that completion's time on the device timeline, so
//! a shallow pipeline genuinely keeps the queue shallow and a deep one fills
//! it — and [`IoStats::overlap_groups`] counts how often a submission found
//! the backend idle (a blocking caller's one-group-per-batch signature).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod error;
pub mod fault;
pub mod memdisk;
pub mod partition;
pub mod queue;
pub mod request;
pub mod resilient;
pub mod ring;
pub mod stats;

pub use backend::file::FileThreadPoolIo;
pub use backend::psync::{Discipline, SimPsyncIo};
pub use backend::threaded::FileLayout;
pub use error::{IoError, IoResult};
pub use fault::{CrashPlan, FaultClock, FaultIo, TornWrite, TransientCounts, TransientFaults};
pub use memdisk::MemDisk;
pub use partition::PartitionIo;
pub use queue::{recycle_image, spare_images, zeroed_image, Completion, IoQueue, Ticket, TryComplete};
pub use request::{ReadRequest, WriteRequest};
pub use resilient::{ResilientIo, RetryPolicy};
pub use ring::TicketRing;
pub use stats::{BatchStats, IoStats};
