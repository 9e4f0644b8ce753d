//! The five workloads' fixed sizes and the engine each one runs on.
//!
//! Common set-up: 2 shards, all of them (stores, WALs, epoch log) partitions
//! of ONE simulated P300 — the layout of `engine::SharedDevice`, built here so
//! the benchmark keeps the device handle and can slot its meters in — 4 KiB
//! pages, 2-segment leaves, `opq_pages = 8`, `pio_max = 64`, fill factor 0.7,
//! default retry policy, rebalancing off, and no time-triggered checkpoint or
//! scrub. Only `serve_mixed` runs the background maintenance worker. All of the
//! process's threads share one CPU (`sys::pin_to_one_cpu`).

use crate::metered::MeteredIo;
use crate::trace::Tracer;
use engine::{EngineBackends, EngineBuilder, EngineConfig, ShardedPioEngine};
use pio::{IoQueue, IoResult, PartitionIo, SimPsyncIo};
use pio_btree::{PioBTree, PioConfig};
use ssd_sim::DeviceProfile;
use std::sync::Arc;
use storage::{CachedStore, PageStore, Wal, WritePolicy};

pub const SHARDS: usize = 2;
pub const PAGE_SIZE: usize = 4096;
/// Keys per `multi_search`, entries per `insert_batch`: `PioMax`.
pub const BATCH: usize = 64;
/// Entries one `range_search` returns.
pub const RANGE_ENTRIES: u64 = 4000;
/// `insert_batch` calls between explicit checkpoints in `write_flush`: without
/// them the log overflows, so the cadence is part of the workload.
pub const CALLS_PER_CHECKPOINT: usize = 256;
/// Bytes of one key/value pair as the caller sees it.
pub const ENTRY_BYTES: u64 = 16;
const PROFILE: DeviceProfile = DeviceProfile::P300;
const SHARD_CAPACITY: u64 = 2 << 30;
const WAL_CAPACITY: u64 = 256 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Range,
    Write,
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Preloaded entries.
    pub entries: u64,
    pub pool_pages: u64,
    pub inner_tier_bytes: u64,
    pub leaf_cache_bytes: u64,
    pub wal: bool,
    pub maintenance_ms: Option<u64>,
    /// Calls (service requests per client, for `serve_mixed`) in one timed segment.
    pub segment_calls: usize,
    /// Warm-up: whether to touch every leaf once, then this many untimed segments.
    pub touch_every_leaf: bool,
    pub warm_segments: usize,
}

pub const SPECS: [Spec; 5] = [
    // Everything fits: the window does no device I/O at all.
    Spec {
        name: "point_hot",
        kind: Kind::Point,
        entries: 400_000,
        pool_pages: 4096,
        inner_tier_bytes: 64 << 20,
        leaf_cache_bytes: 256 << 20,
        wal: false,
        maintenance_ms: None,
        segment_calls: 1000,
        touch_every_leaf: true,
        warm_segments: 1,
    },
    // ~45 MB of leaves against a 4 MiB leaf cache: one leaf-region read per key.
    Spec {
        name: "point_cold",
        kind: Kind::Point,
        entries: 4_000_000,
        pool_pages: 1024,
        inner_tier_bytes: 16 << 20,
        leaf_cache_bytes: 8 << 20,
        wal: false,
        maintenance_ms: None,
        segment_calls: 400,
        touch_every_leaf: false,
        warm_segments: 2,
    },
    Spec {
        name: "range_cold",
        kind: Kind::Range,
        entries: 4_000_000,
        pool_pages: 1024,
        inner_tier_bytes: 16 << 20,
        leaf_cache_bytes: 8 << 20,
        wal: false,
        maintenance_ms: None,
        segment_calls: 400,
        touch_every_leaf: false,
        warm_segments: 1,
    },
    Spec {
        name: "write_flush",
        kind: Kind::Write,
        entries: 1_000_000,
        pool_pages: 1024,
        inner_tier_bytes: 16 << 20,
        leaf_cache_bytes: 8 << 20,
        wal: true,
        maintenance_ms: None,
        segment_calls: CALLS_PER_CHECKPOINT,
        touch_every_leaf: false,
        warm_segments: 1,
    },
    Spec {
        name: "serve_mixed",
        kind: Kind::Serve,
        entries: 1_000_000,
        pool_pages: 1024,
        inner_tier_bytes: 16 << 20,
        leaf_cache_bytes: 8 << 20,
        wal: true,
        maintenance_ms: Some(20),
        segment_calls: 1000,
        touch_every_leaf: false,
        warm_segments: 1,
    },
];

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// `--smoke`: the same workload at 1/50 the data and cache sizes.
    pub fn smoke(mut self) -> Spec {
        let page = PAGE_SIZE as u64;
        self.entries /= 50;
        self.pool_pages = (self.pool_pages / 50).max(16);
        self.inner_tier_bytes = (self.inner_tier_bytes / 50 / page).max(16) * page;
        self.leaf_cache_bytes = (self.leaf_cache_bytes / 50 / page).max(16) * page;
        self.segment_calls = (self.segment_calls / 10).max(8);
        self
    }

    fn tree_config(&self) -> PioConfig {
        PioConfig::builder()
            .page_size(PAGE_SIZE)
            .leaf_segments(2)
            .opq_pages(8)
            .pio_max(BATCH)
            .pool_pages(self.pool_pages)
            .fill_factor(0.7)
            .wal(self.wal)
            .build()
    }

    fn engine_config(&self) -> EngineConfig {
        let mut builder = EngineConfig::builder()
            .shards(SHARDS)
            .profile(PROFILE)
            .shard_capacity_bytes(SHARD_CAPACITY)
            .wal_capacity_bytes(WAL_CAPACITY)
            .base(self.tree_config())
            .inner_tier_bytes(self.inner_tier_bytes)
            .leaf_cache_bytes(self.leaf_cache_bytes);
        if let Some(ms) = self.maintenance_ms {
            builder = builder.maintenance_interval_ms(ms);
        }
        builder.build()
    }
}

/// The wrappers of a traced rig.
pub struct Meters {
    pub device: Arc<MeteredIo>,
    pub partitions: Vec<Arc<MeteredIo>>,
}

/// One workload's system under test.
pub struct Rig {
    pub engine: Arc<ShardedPioEngine>,
    pub device: Arc<SimPsyncIo>,
    /// The shard WAL and epoch-log queues (empty without a WAL).
    pub logs: Vec<Arc<dyn IoQueue>>,
    pub meters: Option<Meters>,
}

impl Rig {
    /// Bulk loads `entries` into a fresh engine. With a tracer, every queue the
    /// engine sees is metered (and only forwards until the tracer is enabled).
    pub fn build(spec: &Spec, entries: &[(u64, u64)], tracer: Option<&Arc<Tracer>>) -> IoResult<Rig> {
        let wal_cap = if spec.wal { WAL_CAPACITY } else { 0 };
        let shards = SHARDS as u64;
        let device = Arc::new(SimPsyncIo::with_profile(
            PROFILE,
            shards * SHARD_CAPACITY + (shards + 1) * wal_cap,
        ));
        let device_meter = tracer.map(|t| Arc::new(MeteredIo::device(Arc::clone(&device) as _, Arc::clone(t))));
        let below: Arc<dyn IoQueue> = match &device_meter {
            Some(meter) => Arc::clone(meter) as _,
            None => Arc::clone(&device) as _,
        };
        let mut partition_meters = Vec::new();
        let mut partition = |base: u64, capacity: u64| -> Arc<dyn IoQueue> {
            let part: Arc<dyn IoQueue> = Arc::new(PartitionIo::new(Arc::clone(&below), base, capacity));
            match tracer {
                Some(t) => {
                    let meter = Arc::new(MeteredIo::partition(part, Arc::clone(t)));
                    partition_meters.push(Arc::clone(&meter));
                    meter
                }
                None => part,
            }
        };
        // Stores first, then the shard WALs, then the epoch log.
        let wal_base = shards * SHARD_CAPACITY;
        let shard_stores = (0..shards)
            .map(|i| partition(i * SHARD_CAPACITY, SHARD_CAPACITY))
            .collect();
        let logs: Vec<Arc<dyn IoQueue>> = (0..=shards)
            .filter(|_| spec.wal)
            .map(|i| partition(wal_base + i * wal_cap, wal_cap))
            .collect();
        let backends = EngineBackends {
            shard_stores,
            shard_wals: logs.iter().take(SHARDS).cloned().collect(),
            engine_wal: logs.get(SHARDS).cloned(),
        };
        let engine = EngineBuilder::new(spec.engine_config())
            .topology(backends)
            .entries(entries)
            .build()?;
        Ok(Rig {
            engine: Arc::new(engine),
            device,
            logs,
            meters: device_meter.map(|device| Meters {
                device,
                partitions: partition_meters,
            }),
        })
    }
}

/// The direct-core leg's tree: the same entries in ONE standalone `PioBTree`
/// on its own device, with the engine's total cache budget.
pub fn build_core_tree(spec: &Spec, entries: &[(u64, u64)]) -> IoResult<PioBTree> {
    let page = PAGE_SIZE as u64;
    let mut config = spec.tree_config();
    config.inner_tier_pages = spec.inner_tier_bytes / page;
    config.leaf_cache_pages = spec.leaf_cache_bytes / page;
    let device = Arc::new(SimPsyncIo::with_profile(PROFILE, SHARD_CAPACITY * SHARDS as u64));
    let store = Arc::new(CachedStore::new(
        PageStore::new(device, PAGE_SIZE),
        config.pool_pages,
        WritePolicy::WriteThrough,
    ));
    let mut tree = PioBTree::bulk_load(store, entries, config)?;
    if spec.wal {
        let log = Arc::new(SimPsyncIo::with_profile(PROFILE, WAL_CAPACITY));
        tree.attach_wal(Wal::new(log, 0, PAGE_SIZE));
    }
    Ok(tree)
}
