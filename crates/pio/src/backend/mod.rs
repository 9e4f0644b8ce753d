//! I/O backends implementing the [`crate::IoQueue`] submission/completion contract
//! (and with it the blocking psync calls it provides).
//!
//! * [`psync`] — [`SimPsyncIo`](psync::SimPsyncIo), the simulated SSD, driven by
//!   one of the three host [`Discipline`](psync::Discipline)s Section 2.3 of the
//!   paper compares. The discipline decides how a submission becomes device
//!   time, what it costs in context switches and how deep a pipeline helps; the
//!   ticket window, the data plane and the statistics are shared.
//! * [`sync`] — conventional synchronous I/O: one request per device submission.
//! * [`threaded`] — thread-per-I/O "parallel processing": the POSIX shared-file
//!   write-ordering behaviour of its [`FileLayout`](threaded::FileLayout)s.
//! * [`mod@file`] — a real-file backend: a persistent pool of positional-I/O
//!   workers fed over a shared job queue.

pub mod file;
pub mod psync;
pub mod sync;
pub mod threaded;
