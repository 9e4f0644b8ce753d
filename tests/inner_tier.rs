//! The inner levels in the page class and the scan-resistant leaf cache, end
//! to end. (The file keeps the name of the inner tier these tests used to
//! cover: a per-tree copy of the internal nodes, since folded into the pool.)
//!
//! Three layers of coverage:
//!
//! 1. **Equivalence** — the resident walk and the leaf cache are pure
//!    accelerators: a CRASH_SEED-randomized interleaving of `multi_search` /
//!    `range_search` / `insert_batch` returns bit-identical results on an
//!    engine whose pool holds the internal levels (descents walk them in
//!    memory) and on one whose pool is too small to (descents take the
//!    ticketed wavefront), on every simulated topology (device-per-shard and
//!    shared-device).
//! 2. **Crash / migration sweep** — CRASH_SEED-randomized crash points over a
//!    workload interleaving batches with forced shard migrations, leaf cache
//!    enabled: after `recover()` the key set read through the page class must
//!    equal the oracle (never a stale pre-migration boundary), with
//!    all-or-nothing bounds exactly as in the scan.
//! 3. **Scan resistance** — a hot point-lookup working set must keep a high
//!    leaf-cache hit rate while full-range scans stream through the store.

mod common;

use common::crash::{crashy_engine, seeded_rng};
use engine::{DevicePerShard, EngineBuilder, EngineConfig, ShardedPioEngine, SharedDevice};
use pio::{CrashPlan, FaultClock, IoQueue, SimPsyncIo};
use pio_btree::{PioBTree, PioConfig};
use rand::{rngs::StdRng, Rng};
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::sync::Arc;
use storage::{CachedStore, PageStore, WritePolicy};

const PAGE: u64 = 2048;

/// Small pages + tiny OPQs so the randomized workload flushes (and therefore
/// rewrites internal nodes in the pool) many times.
fn base_config(wal: bool) -> PioConfig {
    PioConfig::builder()
        .page_size(PAGE as usize)
        .leaf_segments(2)
        .opq_pages(1)
        .pio_max(8)
        .speriod(32)
        .bcnt(64)
        .pool_pages(96)
        .wal(wal)
        .build()
}

/// Four shards over `base`, with a leaf cache.
fn config(base: PioConfig) -> EngineConfig {
    EngineConfig::builder()
        .shards(4)
        .profile(DeviceProfile::F120)
        .shard_capacity_bytes(1 << 28)
        .base(base)
        .leaf_cache_bytes(PAGE * 64 * 4)
        .build()
}

fn seed_entries() -> Vec<(u64, u64)> {
    (0..2_000u64).map(|k| (k * 16, k + 1)).collect()
}

// ------------------------------------------------------------- equivalence --

/// One step of the randomized interleaving, drawn identically for every engine
/// under comparison.
enum Step {
    Insert(Vec<(u64, u64)>),
    Multi(Vec<u64>),
    Range(u64, u64),
}

fn random_steps(rng: &mut StdRng, steps: usize) -> Vec<Step> {
    (0..steps)
        .map(|_| match rng.gen_range(0u32..3) {
            0 => {
                // Distinct keys: a stride walk over the space, mixing
                // overwrites of the seed population with fresh tail keys.
                let start = rng.gen_range(0u64..40_000);
                let stride = rng.gen_range(3u64..37) | 1;
                Step::Insert((0..64u64).map(|i| (start + i * stride, start ^ i)).collect())
            }
            1 => {
                let start = rng.gen_range(0u64..40_000);
                Step::Multi((0..100u64).map(|i| (start + i * 97) % 45_000).collect())
            }
            _ => {
                let lo = rng.gen_range(0u64..35_000);
                Step::Range(lo, lo + rng.gen_range(100u64..5_000))
            }
        })
        .collect()
}

/// Runs the interleaving, returning every observable result in order.
#[allow(clippy::type_complexity)]
fn run_steps(engine: &ShardedPioEngine, steps: &[Step]) -> (Vec<Vec<Option<u64>>>, Vec<Vec<(u64, u64)>>) {
    let (mut multis, mut ranges) = (Vec::new(), Vec::new());
    for step in steps {
        match step {
            Step::Insert(batch) => engine.insert_batch(batch).expect("insert_batch"),
            Step::Multi(keys) => multis.push(engine.multi_search(keys).expect("multi_search")),
            Step::Range(lo, hi) => ranges.push(engine.range_search(*lo, *hi).expect("range_search")),
        }
    }
    (multis, ranges)
}

#[test]
fn tier_on_equals_tier_off_on_every_sim_topology() {
    let (mut rng, seed) = seeded_rng();
    let entries = seed_entries();
    let steps = random_steps(&mut rng, 40);
    // 256-byte pages: an internal node holds at most 16 children, so every
    // shard starts with two internal levels.
    let deep = PioConfig {
        page_size: 256,
        pool_pages: 1024,
        ..base_config(false)
    };

    // The reference: a device-per-shard engine with a 4-page pool — one page
    // per shard, too small to keep an internal level resident — and no leaf
    // cache, so its descents take the wavefront.
    let reference = EngineConfig {
        leaf_cache_bytes: None,
        ..config(PioConfig {
            pool_pages: 4,
            ..deep.clone()
        })
    };
    let reference = EngineBuilder::new(reference)
        .topology(DevicePerShard)
        .entries(&entries)
        .build()
        .expect("reference engine");
    let expected = run_steps(&reference, &steps);
    let final_state: BTreeMap<u64, u64> = reference.range_search(0, u64::MAX).unwrap().into_iter().collect();
    let walks = reference.stats().rollup;
    assert_eq!(
        (walks.inner_tier_hits, walks.inner_tier_misses > 0),
        (0, true),
        "seed {seed}: every descent of the reference takes the wavefront"
    );

    let against_reference = |engine: ShardedPioEngine, label: &str| {
        let got = run_steps(&engine, &steps);
        assert_eq!(
            got, expected,
            "seed {seed}: {label} diverged from the wavefront reference"
        );
        let scan: BTreeMap<u64, u64> = engine.range_search(0, u64::MAX).unwrap().into_iter().collect();
        assert_eq!(scan, final_state, "seed {seed}: {label} final state diverged");
        let stats = engine.stats();
        assert_eq!(
            (stats.rollup.inner_tier_hits > 0, stats.rollup.inner_tier_misses),
            (true, 0),
            "seed {seed}: every descent of {label} walks the pool"
        );
        assert!(
            stats.leaf_cache.hits + stats.leaf_cache.misses + stats.leaf_cache.scan_bypasses > 0,
            "seed {seed}: {label} never consulted the leaf cache"
        );
        engine.check_invariants().unwrap();
    };
    against_reference(
        EngineBuilder::new(config(deep.clone()))
            .topology(DevicePerShard)
            .entries(&entries)
            .build()
            .expect("cached device-per-shard"),
        "cached device-per-shard",
    );
    against_reference(
        EngineBuilder::new(config(deep))
            .topology(SharedDevice)
            .entries(&entries)
            .build()
            .expect("cached shared-device"),
        "cached shared-device",
    );
}

// ------------------------------------------------- crash / migration sweep --

enum Op {
    Batch(Vec<(u64, u64)>),
    Split(usize),
    Merge(usize, usize),
}

/// Batches interleaved with forced migrations, as in the rebalance sweep, so
/// crash points land inside migration windows while the pool holds the
/// internal levels.
fn sweep_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    let batch = |b: u64| -> Vec<(u64, u64)> {
        (0..48u64)
            .map(|i| {
                let key = if i % 3 == 0 {
                    32_000 + (b * 48 + i) * 11
                } else {
                    (i * 131 + b * 17) % 32_000
                };
                (key, b * 1_000 + i + 1)
            })
            .collect()
    };
    for (b, migration) in [
        Some(Op::Split(3)),
        Some(Op::Merge(1, 2)),
        None,
        Some(Op::Split(0)),
        Some(Op::Merge(0, 1)),
        Some(Op::Split(1)),
    ]
    .into_iter()
    .enumerate()
    {
        ops.push(Op::Batch(batch(b as u64)));
        if let Some(m) = migration {
            ops.push(m);
        }
    }
    ops
}

fn sweep_oracle(entries: &[(u64, u64)], ops: &[Op]) -> BTreeMap<u64, u64> {
    let mut model: BTreeMap<u64, u64> = entries.iter().copied().collect();
    for op in ops {
        if let Op::Batch(batch) = op {
            for &(k, v) in batch {
                model.insert(k, v);
            }
        }
    }
    model
}

fn run_sweep(engine: &ShardedPioEngine, ops: &[Op]) -> Result<(), usize> {
    for (i, op) in ops.iter().enumerate() {
        let outcome = match op {
            Op::Batch(batch) => engine.insert_batch(batch),
            Op::Split(s) => engine.split_shard(*s).map(|_| ()),
            Op::Merge(s, d) => engine.merge_shard(*s, *d).map(|_| ()),
        };
        if outcome.is_err() {
            return Err(i);
        }
    }
    Ok(())
}

/// After any crash — mid-batch, mid-migration, mid-commit — the recovered
/// engine's answers through the page class must equal the oracle:
/// multi-search every key the workload ever wrote and compare against the
/// authoritative scan. A pooled internal node surviving a boundary swap,
/// rollback or crash it should not have would surface here as a missing or
/// misrouted key.
#[test]
fn recovered_tier_never_serves_a_stale_boundary() {
    let (mut rng, seed) = seeded_rng();
    let cfg = config(base_config(true));
    let seeds: Vec<(u64, u64)> = (0..400u64).map(|k| (k * 80, k + 1)).collect();
    let ops = sweep_ops();

    // Profiling run: how many write submissions the clean workload makes.
    let clock = FaultClock::new();
    let engine = crashy_engine(&cfg, &seeds, &clock);
    let base = clock.writes_seen();
    run_sweep(&engine, &ops).expect("clean run must not fail");
    let total_writes = clock.writes_seen() - base;
    assert!(engine.stats().splits + engine.stats().merges >= 4, "sweep must migrate");
    assert!(
        engine.stats().rollup.inner_tier_hits > 0,
        "sweep must exercise the resident walk"
    );
    drop(engine);

    // Every key the workload can ever contain, probed through the page class.
    let all_keys: Vec<u64> = sweep_oracle(&seeds, &ops).keys().copied().collect();

    const TRIALS: usize = 60;
    for trial in 0..TRIALS {
        let k = rng.gen_range(0u64..total_writes);
        let clock = FaultClock::new();
        let engine = crashy_engine(&cfg, &seeds, &clock);
        clock.arm(CrashPlan::at_write(clock.writes_seen() + k));
        let failed_at = run_sweep(&engine, &ops).expect_err(&format!(
            "seed {seed} trial {trial}: write {k}/{total_writes} must crash some op"
        ));
        clock.heal();
        engine.simulate_crash();
        engine
            .recover()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: recovery failed: {e}"));

        // The authoritative state (range scan) with/without the in-flight op.
        let got: BTreeMap<u64, u64> = engine.range_search(0, u64::MAX).unwrap().into_iter().collect();
        let without = sweep_oracle(&seeds, &ops[..failed_at]);
        let with = sweep_oracle(&seeds, &ops[..=failed_at]);
        assert!(
            got == without || got == with,
            "seed {seed} trial {trial} write {k}: key set diverged after crash in op {failed_at}"
        );
        // The point reads must agree with that state exactly, and — the scan
        // having warmed every internal node — take no wavefront to do so.
        let before = engine.stats().rollup;
        let answers = engine.multi_search(&all_keys).unwrap();
        for (&key, answer) in all_keys.iter().zip(&answers) {
            assert_eq!(
                *answer,
                got.get(&key).copied(),
                "seed {seed} trial {trial} write {k}: stale page-class answer for key {key} after \
                 crash in op {failed_at}"
            );
        }
        let after = engine.stats().rollup;
        assert_eq!(
            (after.inner_tier_misses, after.inner_tier_hits > before.inner_tier_hits),
            (before.inner_tier_misses, true),
            "seed {seed} trial {trial} write {k}: the multi-search must walk the pool"
        );
        engine
            .check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed} trial {trial} write {k}: invariants violated: {e}"));
    }
}

/// A committed migration with no crash at all: the moment `split_shard` /
/// `merge_shard` return, reads walking the pool must already see the new
/// boundary — no stale page-class answer.
#[test]
fn tier_reads_are_exact_immediately_after_committed_migrations() {
    let engine = EngineBuilder::new(config(base_config(true)))
        .entries(&seed_entries())
        .build()
        .expect("bulk load");
    let mut model: BTreeMap<u64, u64> = seed_entries().into_iter().collect();
    let keys: Vec<u64> = model.keys().copied().collect();
    for round in 0..4u64 {
        let batch: Vec<(u64, u64)> = keys.iter().step_by(3).map(|&k| (k, k + round)).collect();
        engine.insert_batch(&batch).unwrap();
        for &(k, v) in &batch {
            model.insert(k, v);
        }
        match round % 2 {
            0 => drop(engine.split_shard(0).expect("split")),
            _ => drop(engine.merge_shard(1, 2).expect("merge")),
        }
        let answers = engine.multi_search(&keys).unwrap();
        for (&key, answer) in keys.iter().zip(&answers) {
            assert_eq!(
                *answer,
                model.get(&key).copied(),
                "round {round}, key {key}: stale page-class answer"
            );
        }
    }
    assert!(engine.stats().rollup.inner_tier_hits > 0);
    engine.check_invariants().unwrap();
}

// --------------------------------------------------------- scan resistance --

/// The satellite guarantee at tree level: a hot point-lookup working set keeps
/// its leaf-cache hit rate while full-range scans stream every leaf of the
/// tree through the store.
#[test]
fn hot_working_set_keeps_its_hit_rate_under_streaming_scans() {
    let config = PioConfig {
        leaf_cache_pages: 16, // a handful of leaves — far smaller than the tree
        ..base_config(false)
    };
    let entries: Vec<(u64, u64)> = (0..8_000u64).map(|k| (k * 4, k + 1)).collect();
    let io: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::F120, 1 << 28));
    let store = Arc::new(CachedStore::new(
        PageStore::new(io, PAGE as usize),
        96,
        WritePolicy::WriteThrough,
    ));
    let mut tree = PioBTree::bulk_load(store, &entries, config).expect("bulk load");

    // A hot set inside a few adjacent leaves.
    let hot: Vec<u64> = (0..32u64).map(|k| k * 4).collect();
    for round in 0..30 {
        for &k in &hot {
            assert_eq!(tree.search(k).unwrap(), Some(k / 4 + 1));
        }
        if round % 3 == 0 {
            // The antagonist: a full-range scan touching every leaf.
            let n = tree.range_search(0, u64::MAX).unwrap().len();
            assert_eq!(n, entries.len());
        }
    }
    let stats = tree.store().leaf_cache_stats();
    assert!(stats.scan_bypasses > 0, "the scans must have streamed past the cache");
    assert!(
        stats.hit_ratio() >= 0.8,
        "hot working set lost its hit rate under scans: {:.3} ({stats:?})",
        stats.hit_ratio()
    );
    assert_eq!(
        stats.evictions, 0,
        "scans must not force evictions from a cache that fits the hot set"
    );
}
