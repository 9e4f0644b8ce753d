//! # service — a concurrent front end for the sharded PIO engine
//!
//! The paper's batched entry points (`MPSearch`, batch inserts over the OPQ)
//! assume *someone* hands the index a wide batch. A serving system never gets
//! one for free: what arrives is a stream of independent single requests from
//! many concurrent clients. This crate closes that gap — it is the component
//! that turns the paper's batch-oriented index into a *service*:
//!
//! * **Typed protocol** ([`Request`], [`Response`], [`ServiceError`]): get,
//!   put, and range-scan with per-request [`RequestTiming`] in every response.
//! * **Work-conserving admission with cross-request group batching**
//!   ([`EngineService`]): a request that finds its shard idle runs at once;
//!   requests arriving while a batch of their shard executes accumulate in
//!   the shard's builder, which the finishing thread hands to its leader — so
//!   batches form from concurrency, never from a timer. A builder flushes
//!   early when it reaches `max_batch_size`; only a `request_deadline_ms`
//!   cuts the wait behind a running batch. The service has no threads: the
//!   client that opened a builder (or filled it) runs its engine call and
//!   answers the clients that joined it. Coalesced gets become one engine
//!   [`multi_search`](engine::ShardedPioEngine::multi_search) (the MPSearch
//!   path), coalesced puts become one
//!   [`insert_batch`](engine::ShardedPioEngine::insert_batch) — a group commit
//!   the one shard forces alone — and scans pass straight through to
//!   [`range_search`](engine::ShardedPioEngine::range_search).
//! * **Per-request latency accounting** ([`ServiceStats`],
//!   [`HistogramSnapshot`]): queue wait, batch service time, and end-to-end
//!   latency per request, aggregated in HDR-style log-linear histograms
//!   (p50/p95/p99/max at ~3% relative error), plus batching counters — batches
//!   formed, average occupancy, and why each batch flushed (size-triggered,
//!   idle slot, hand-over, request deadline or shutdown drain).
//!
//! The knobs live in the engine's [`EngineConfig`](engine::EngineConfig)
//! (`max_batch_size`, `request_deadline_ms`, `admission_queue_limit`) so a
//! deployment is described in one place.
//!
//! ```
//! use engine::{EngineConfig, ShardedPioEngine};
//! use service::EngineService;
//! use std::sync::Arc;
//!
//! let sample: Vec<u64> = (0..4096).map(|i| i * 13).collect();
//! let engine = Arc::new(ShardedPioEngine::create(EngineConfig::default(), &sample).unwrap());
//! let service = EngineService::start(engine);
//!
//! let handle = service.handle(); // Clone one per client thread.
//! handle.put(42, 4200).unwrap();
//! assert_eq!(handle.get(42).unwrap().value(), Some(4200));
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.total_requests(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod protocol;
pub mod service;

pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use protocol::{Request, RequestClass, RequestTiming, Response, ResponseBody, ServiceError};
pub use service::{EngineService, ServiceHandle, ServiceStats};
