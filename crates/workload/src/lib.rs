//! # workload — synthetic and TPC-C-like index workload generators
//!
//! The paper evaluates its indexes on two kinds of workloads:
//!
//! * **Synthetic workloads** (Section 4.1): an index bulk-loaded with uniformly
//!   distributed keys, then driven by operation mixes characterised by their
//!   insert/search ratio (10/90 … 90/10), plus search-only, insert-only and
//!   range-search-only experiments.
//! * **A TPC-C index trace** (Section 4.2): operations captured inside PostgreSQL
//!   while running TPC-C with 100 warehouses / 100 clients — 8 index relations,
//!   71.5 % point searches, 23.8 % inserts, 3.7 % range searches, 1 % deletes, with
//!   higher temporal and spatial locality than the synthetic workloads.
//!
//! This crate generates both, deterministically from a seed, so every benchmark run
//! is reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed_loop;
pub mod keyspace;
pub mod ops;
pub mod tpcc;

pub use closed_loop::{run_closed_loop, ClientMix, ClosedLoopReport, ClosedLoopSpec, ErrorClass, ServiceTarget};
pub use keyspace::{KeyDistribution, KeyGenerator};
pub use ops::{MixSpec, Operation, OperationGenerator};
pub use tpcc::{TpccConfig, TpccTraceGenerator, TraceOp};
