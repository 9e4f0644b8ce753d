//! One construction path for every engine: [`EngineBuilder`].
//!
//! Historically the engine grew five constructors (`create`, `bulk_load`,
//! `bulk_load_with_sample`, and `_with_backends` variants bolted on as a
//! test-only seam) — none of which could say *where* the shards live. The
//! builder collapses them into one fluent path over a pluggable
//! [`ShardProvisioner`] topology:
//!
//! ```
//! use engine::{DevicePerShard, EngineBuilder, EngineConfig, SharedDevice};
//!
//! let entries: Vec<(u64, u64)> = (0..10_000).map(|k| (k, k * 10)).collect();
//! // Today's behaviour: one simulated device per shard (the default topology).
//! let per_shard = EngineBuilder::new(EngineConfig::default())
//!     .topology(DevicePerShard)
//!     .entries(&entries)
//!     .build()
//!     .unwrap();
//! // The same shards contending on ONE device.
//! let shared = EngineBuilder::new(EngineConfig::default())
//!     .topology(SharedDevice)
//!     .entries(&entries)
//!     .build()
//!     .unwrap();
//! assert_eq!(per_shard.search(42).unwrap(), shared.search(42).unwrap());
//! ```
//!
//! [`EngineBuilder::recover`] is the restart half: for a topology with durable
//! state ([`crate::RealFiles`]), it reopens the persisted manifest, restores
//! every shard's superblock snapshot and replays the WALs.

use crate::commit::EpochCoordinator;
use crate::config::EngineConfig;
use crate::maintenance::{DirtyState, MaintenanceWorker};
use crate::recovery::EngineRecoveryReport;
use crate::routing::{boundaries_from_sample, boundaries_from_sorted, shard_range, RoutingState};
use crate::scheduler::WorkerPool;
use crate::shard::{build_shard, Shard};
use crate::sharded::{EngineInner, ShardedPioEngine};
use crate::stats::EngineCounters;
use crate::topology::{DevicePerShard, EngineBackends, EngineManifest, ProvisionMode, ShardProvisioner};
use btree::{Key, Value};
use parking_lot::{Mutex, RwLock};
use pio::{IoError, IoResult};
use pio_btree::PioBTree;
use std::sync::Arc;

/// Builds a [`ShardedPioEngine`] over a storage topology.
///
/// * [`EngineBuilder::topology`] — where the shards live (default:
///   [`DevicePerShard`]).
/// * [`EngineBuilder::key_sample`] — boundary sample for the shard cuts; when
///   absent, the bulk-load entries double as the sample (and with neither, the
///   key space is cut uniformly).
/// * [`EngineBuilder::entries`] — sorted, duplicate-free entries to bulk load
///   (empty for a fresh engine).
/// * [`EngineBuilder::build`] — provision and assemble.
/// * [`EngineBuilder::recover`] — reopen a persisted engine instead (restart
///   path; topologies with a manifest only).
pub struct EngineBuilder<'a> {
    config: EngineConfig,
    topology: Box<dyn ShardProvisioner>,
    key_sample: Option<&'a [Key]>,
    entries: &'a [(Key, Value)],
}

impl std::fmt::Debug for EngineBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("config", &self.config)
            .field("topology", &self.topology.name())
            .field("key_sample", &self.key_sample.map(<[Key]>::len))
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl<'a> EngineBuilder<'a> {
    /// Starts a builder with the [`DevicePerShard`] topology, no key sample and
    /// no entries.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            topology: Box::new(DevicePerShard),
            key_sample: None,
            entries: &[],
        }
    }

    /// Sets the storage topology the shards are provisioned on.
    pub fn topology(mut self, topology: impl ShardProvisioner + 'static) -> Self {
        self.topology = Box::new(topology);
        self
    }

    /// Sets the boundary sample (pass the expected key population; without it
    /// the bulk-load entries are the sample, and with neither the `u64` space
    /// is cut uniformly).
    pub fn key_sample(mut self, sample: &'a [Key]) -> Self {
        self.key_sample = Some(sample);
        self
    }

    /// Sets the entries to bulk load (sorted, duplicate-free; unsorted input is
    /// a caller bug and panics at [`EngineBuilder::build`]).
    pub fn entries(mut self, entries: &'a [(Key, Value)]) -> Self {
        self.entries = entries;
        self
    }

    /// Provisions the topology and assembles a fresh engine: boundaries are cut
    /// from the sample (or the entries), every shard is bulk loaded onto its
    /// provisioned store, and — for topologies with durable state — the initial
    /// manifest snapshot is persisted.
    ///
    /// An invalid configuration or a provisioner failure is an error; unsorted
    /// entries are a caller bug and panic.
    pub fn build(self) -> IoResult<ShardedPioEngine> {
        self.config.validate().map_err(IoError::InvalidConfig)?;
        assert!(
            self.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "bulk_load requires sorted, duplicate-free input"
        );
        let bounds = match self.key_sample {
            Some(sample) => boundaries_from_sample(sample, self.config.shards),
            None => boundaries_from_sorted(self.entries.len(), |i| self.entries[i].0, self.config.shards),
        };
        let backends = self.topology.provision(&self.config, ProvisionMode::Create)?;
        ShardedPioEngine::assemble(self.config, self.entries, bounds, backends, self.topology)
    }

    /// Reopens a persisted engine (restart path): loads the topology's
    /// [`crate::EngineManifest`], restores each shard's superblock snapshot
    /// over the existing storage, runs engine-level recovery (epoch verdicts
    /// from the shard logs' commit records + per-shard WAL replay) and re-persists the post-recovery manifest.
    /// Returns the engine together with the recovery report.
    ///
    /// Only topologies with durable state support this; [`EngineBuilder::entries`]
    /// and [`EngineBuilder::key_sample`] are ignored (boundaries come from the
    /// manifest). Without a WAL the recovered state is the last clean
    /// checkpoint, and a directory whose dirty marker is still standing
    /// (mutated after the last checkpoint) is **refused** — see
    /// [`crate::RealFiles`].
    pub fn recover(self) -> IoResult<(ShardedPioEngine, EngineRecoveryReport)> {
        self.config.validate().map_err(IoError::InvalidConfig)?;
        let manifest = self.topology.load_manifest()?.ok_or_else(|| {
            IoError::InvalidConfig(format!(
                "topology '{}' has no persisted engine manifest to recover from \
                 (only topologies with durable state, e.g. RealFiles, support recover())",
                self.topology.name()
            ))
        })?;
        // Without a WAL there is nothing to replay, so the manifest snapshot
        // must exactly describe the files: a standing dirty marker means
        // mutations (in-place page rewrites, allocations) happened after the
        // last checkpoint and are unrecoverable — refuse rather than reopen a
        // silently inconsistent mix.
        if !self.config.base.wal_enabled && self.topology.load_dirty()? {
            return Err(IoError::InvalidConfig(format!(
                "topology '{}' was not shut down cleanly (dirty marker present) and the WAL is \
                 disabled, so the manifest snapshot no longer describes the files; checkpoint \
                 before shutdown, or enable the WAL for crash-safe reopen",
                self.topology.name()
            )));
        }
        // Validate before provisioning: a mismatched recover attempt must not
        // touch the topology's storage (RealFiles would otherwise create empty
        // files for the extra shards on its way to the error).
        ShardedPioEngine::validate_manifest(&self.config, &manifest)?;
        let backends = self.topology.provision(&self.config, ProvisionMode::Reopen)?;
        let engine = ShardedPioEngine::reopen(self.config, manifest, backends, self.topology)?;
        let report = engine.recover()?;
        Ok((engine, report))
    }
}

/// Assembly: how [`EngineBuilder`] turns provisioned backends into a running
/// engine, fresh ([`ShardedPioEngine::assemble`]) or reopened
/// ([`ShardedPioEngine::reopen`]).
impl ShardedPioEngine {
    /// The provisioned backends must match the configuration before anything is
    /// built on them.
    fn validate_backends(config: &EngineConfig, backends: &EngineBackends) -> IoResult<()> {
        let wal = config.base.wal_enabled;
        if backends.shard_stores.len() != config.shards || (wal && backends.shard_wals.len() != config.shards) {
            return Err(pio::IoError::InvalidConfig(format!(
                "the topology must supply one store{} backend per shard ({} shards)",
                if wal { " and one WAL" } else { "" },
                config.shards,
            )));
        }
        Ok(())
    }

    /// Assembles a fresh engine over provisioned backends: splits the (sorted)
    /// entries at the boundary keys, bulk loads every shard, and persists the
    /// initial manifest snapshot. Called by [`EngineBuilder::build`].
    pub(crate) fn assemble(
        config: EngineConfig,
        entries: &[(Key, Value)],
        bounds: Vec<Key>,
        backends: EngineBackends,
        topology: Box<dyn ShardProvisioner>,
    ) -> IoResult<Self> {
        if bounds.len() != config.shards - 1 {
            return Err(pio::IoError::InvalidConfig(format!(
                "key space cannot be cut into {} shards",
                config.shards
            )));
        }
        Self::validate_backends(&config, &backends)?;
        let shard_cfg = config.shard_config();

        // Split the (sorted) entries at the boundary keys.
        let mut shards = Vec::with_capacity(config.shards);
        let mut build_makespan_us = 0.0f64;
        let mut rest = entries;
        for i in 0..config.shards {
            let (_, hi) = shard_range(&bounds, i, config.shards);
            let cut = if i == config.shards - 1 {
                rest.len()
            } else {
                rest.partition_point(|&(k, _)| k < hi)
            };
            let (mine, others) = rest.split_at(cut);
            rest = others;
            let shard = build_shard(
                &shard_cfg,
                Arc::clone(&backends.shard_stores[i]),
                backends.shard_wals.get(i),
                |store| PioBTree::bulk_load(store, mine, shard_cfg.clone()),
            )?;
            // Shard loads run as concurrent streams like every other engine
            // operation, so the schedule is charged the slowest shard's build.
            build_makespan_us = build_makespan_us.max(shard.tree.lock().io_elapsed_us());
            shards.push(shard);
        }
        // A freshly built engine is clean: clear any stale marker left in the
        // topology's durable state by a previous incarnation.
        topology.set_dirty(false)?;
        let engine = Self::finish(config, shards, bounds, build_makespan_us, topology, None)?;
        engine.inner.sync_manifest()?;
        Ok(engine)
    }

    /// Checks a loaded manifest against the configuration (and its own internal
    /// shape — a custom provisioner's `load_manifest` can hand back anything).
    /// Called by [`EngineBuilder::recover`] *before* provisioning, so a
    /// mismatched recover attempt never touches the topology's storage.
    pub(crate) fn validate_manifest(config: &EngineConfig, manifest: &EngineManifest) -> IoResult<()> {
        if manifest.shards != config.shards
            || manifest.page_size != config.base.page_size
            || manifest.wal_enabled != config.base.wal_enabled
        {
            return Err(pio::IoError::InvalidConfig(format!(
                "manifest (shards {}, page_size {}, wal {}) does not match the configuration \
                 (shards {}, page_size {}, wal {})",
                manifest.shards,
                manifest.page_size,
                manifest.wal_enabled,
                config.shards,
                config.base.page_size,
                config.base.wal_enabled,
            )));
        }
        if manifest.bounds.len() + 1 != manifest.shards || manifest.shard_meta.len() != manifest.shards {
            return Err(pio::IoError::InvalidConfig(format!(
                "malformed manifest: {} bounds and {} shard snapshots for {} shards",
                manifest.bounds.len(),
                manifest.shard_meta.len(),
                manifest.shards,
            )));
        }
        Ok(())
    }

    /// Reopens a persisted engine over its existing storage: every shard's
    /// superblock snapshot (root, height, allocation frontier) comes from the
    /// manifest, the volatile state starts empty — exactly as after a crash —
    /// and the caller ([`EngineBuilder::recover`]) runs
    /// [`ShardedPioEngine::recover`] next to replay the WALs.
    pub(crate) fn reopen(
        config: EngineConfig,
        manifest: EngineManifest,
        backends: EngineBackends,
        topology: Box<dyn ShardProvisioner>,
    ) -> IoResult<Self> {
        Self::validate_manifest(&config, &manifest)?;
        Self::validate_backends(&config, &backends)?;
        let shard_cfg = config.shard_config();
        let bounds = manifest.bounds.clone();
        let mut shards = Vec::with_capacity(config.shards);
        for (i, meta) in manifest.shard_meta.iter().enumerate() {
            shards.push(build_shard(
                &shard_cfg,
                Arc::clone(&backends.shard_stores[i]),
                backends.shard_wals.get(i),
                |store| {
                    store.ensure_high_water(meta.high_water);
                    PioBTree::open(store, shard_cfg.clone(), meta.root, meta.height as usize)
                },
            )?);
        }
        Self::finish(config, shards, bounds, 0.0, topology, Some(manifest))
    }

    /// Shared tail of [`ShardedPioEngine::assemble`] / [`ShardedPioEngine::reopen`]:
    /// wires up the shard worker pool and the optional maintenance worker.
    fn finish(
        config: EngineConfig,
        shards: Vec<Arc<Shard>>,
        bounds: Vec<Key>,
        build_makespan_us: f64,
        topology: Box<dyn ShardProvisioner>,
        manifest: Option<EngineManifest>,
    ) -> IoResult<Self> {
        let shard_count = shards.len();
        // Mirror the durable dirty marker in memory: cleared by `assemble`, kept
        // as-is by `reopen` (the WAL replay that follows does not change what
        // it means).
        let marked = topology.load_dirty()?;
        // The cross-shard epoch coordinator exists exactly when the shards log:
        // without per-shard WALs there is nothing to make atomic.
        let epoch = config.base.wal_enabled.then(|| EpochCoordinator::new(shard_count));
        let inner = Arc::new(EngineInner {
            pool: WorkerPool::spawn(shards.iter().cloned()),
            shards,
            routing: RwLock::new(RoutingState {
                bounds,
                migration: None,
                version: 0,
            }),
            config: config.clone(),
            topology,
            manifest: Mutex::new(manifest),
            dirty: Mutex::new(DirtyState {
                marked,
                ..DirtyState::default()
            }),
            epoch,
            counters: EngineCounters::default(),
            scheduled_us: Mutex::new(build_makespan_us),
            rebalance_baseline: Mutex::new(vec![0; shard_count]),
            last_maintenance_error: Mutex::new(None),
        });
        let worker = config
            .maintenance_interval_ms
            .map(|ms| MaintenanceWorker::spawn(Arc::clone(&inner), std::time::Duration::from_millis(ms)));
        Ok(Self { worker, inner })
    }
}
