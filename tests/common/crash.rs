//! Crash-point drivers for the recovery test suites, built on the shared
//! [`pio::fault`] harness (the same wrapper the `storage` and `pio-btree` unit
//! tests use).
//!
//! The pattern: every I/O backend of the system under test — shard stores and
//! shard WALs — is wrapped in a [`FaultIo`] sharing one
//! [`FaultClock`], so "crash at write `k`" means the `k`-th write submission
//! anywhere in the system. A profiling run with nothing armed counts the total
//! writes of the deterministic workload; the randomized tests then sweep crash
//! points over that range and compare every recovered state against an
//! in-memory oracle.
//!
//! The random seed comes from the `CRASH_SEED` environment variable when set
//! (CI runs the suites once with the fixed default and once with a fresh
//! seed), and every assertion message carries it for replay.

#![allow(dead_code)]

use engine::{EngineBackends, EngineBuilder, EngineConfig, ShardedPioEngine};
use pio::{FaultClock, FaultIo, IoQueue, SimPsyncIo};
use rand::{rngs::StdRng, SeedableRng};
use ssd_sim::DeviceProfile;
use std::sync::Arc;

/// The fixed default seed used when `CRASH_SEED` is not set.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// A deterministic RNG seeded from `CRASH_SEED` (or the fixed default), plus
/// the seed itself for failure messages.
pub fn seeded_rng() -> (StdRng, u64) {
    let seed = std::env::var("CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    (StdRng::seed_from_u64(seed), seed)
}

/// A fresh simulated device wrapped in the fault harness on `clock`.
pub fn faulty_sim(profile: DeviceProfile, capacity_bytes: u64, clock: &Arc<FaultClock>) -> Arc<dyn IoQueue> {
    Arc::new(FaultIo::new(
        Arc::new(SimPsyncIo::with_profile(profile, capacity_bytes)),
        Arc::clone(clock),
    ))
}

/// Per-backend clocks for scripted crash points: separate clocks for each
/// shard store and each shard WAL, so a test can target exactly one backend's
/// N-th write — an epoch's commit force is its coordinator's WAL write (the
/// lowest member shard of a batch, the source shard of a migration).
pub struct EngineClocks {
    pub stores: Vec<Arc<FaultClock>>,
    pub wals: Vec<Arc<FaultClock>>,
}

impl EngineClocks {
    /// Clears plans and halts on every clock (the "restart" before recovery).
    pub fn heal_all(&self) {
        for c in self.stores.iter().chain(&self.wals) {
            c.heal();
        }
    }
}

/// Builds the fault-wrapped backends for `shards` shards, all sharing `clock`.
pub fn shared_clock_backends(config: &EngineConfig, clock: &Arc<FaultClock>) -> EngineBackends {
    EngineBackends {
        shard_stores: (0..config.shards)
            .map(|_| faulty_sim(config.profile, config.shard_capacity_bytes, clock))
            .collect(),
        shard_wals: (0..config.shards)
            .map(|_| faulty_sim(config.profile, config.wal_capacity_bytes, clock))
            .collect(),
        engine_wal: None,
    }
}

/// Builds fault-wrapped backends with one independent clock per backend, for
/// scripted crash points.
pub fn per_backend_clocks(config: &EngineConfig) -> (EngineBackends, EngineClocks) {
    let stores: Vec<Arc<FaultClock>> = (0..config.shards).map(|_| FaultClock::new()).collect();
    let wals: Vec<Arc<FaultClock>> = (0..config.shards).map(|_| FaultClock::new()).collect();
    let backends = EngineBackends {
        shard_stores: stores
            .iter()
            .map(|c| faulty_sim(config.profile, config.shard_capacity_bytes, c))
            .collect(),
        shard_wals: wals
            .iter()
            .map(|c| faulty_sim(config.profile, config.wal_capacity_bytes, c))
            .collect(),
        engine_wal: None,
    };
    (backends, EngineClocks { stores, wals })
}

/// Builds a WAL-enabled engine whose every backend shares `clock`, bulk-loaded
/// with `entries`. The fault-wrapped backends ride the public builder API —
/// [`EngineBackends`] is itself a [`engine::ShardProvisioner`].
pub fn crashy_engine(config: &EngineConfig, entries: &[(u64, u64)], clock: &Arc<FaultClock>) -> ShardedPioEngine {
    EngineBuilder::new(config.clone())
        .topology(shared_clock_backends(config, clock))
        .entries(entries)
        .build()
        .expect("engine build must succeed before any plan is armed")
}
