//! The log lifecycle: checkpoint-anchored WAL/epoch-log truncation and the
//! recovery bound it buys.
//!
//! Three properties, straight from the design:
//!
//! 1. **Bounded recovery** — after a checkpoint, the work a recovery performs
//!    (`EngineStats::recovery_replayed_records`) is proportional to the
//!    activity *since* that checkpoint, not to the store's age. Without
//!    checkpoints the same metric grows with the full history.
//! 2. **Bounded logs** — a write/checkpoint loop holds the replayable log
//!    bytes at a small constant per round instead of growing without bound,
//!    and the incremental checkpoint is a durable no-op on a clean engine.
//! 3. **Physical reclamation** — on the real-files topology, truncation
//!    eventually shrinks the WAL files on disk (compaction alternates with
//!    logical-only rounds, so the bound is ~two rounds of log, not the peak).
//! 4. **Log volume** — what a flush logs is proportional to what it changed:
//!    an appended-to leaf segment costs a few bytes of undo, not a page
//!    pre-image, and a force never reads the log back.

use engine::{DevicePerShard, EngineBuilder, EngineConfig, RealFiles, ShardedPioEngine};
use pio::{IoQueue, SimPsyncIo};
use pio_btree::{PioBTree, PioConfig};
use ssd_sim::DeviceProfile;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use storage::{CachedStore, PageStore, Wal, WritePolicy};

/// A scratch directory under the system tempdir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("pio-loglife-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        Self(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Three shards, tiny OPQs, WALs on — the engine_recovery shape.
fn config() -> EngineConfig {
    EngineConfig::builder()
        .shards(3)
        .profile(DeviceProfile::F120)
        .shard_capacity_bytes(1 << 28)
        .base(
            PioConfig::builder()
                .page_size(2048)
                .leaf_segments(2)
                .opq_pages(1)
                .pio_max(8)
                .speriod(32)
                .bcnt(64)
                .pool_pages(96)
                .wal(true)
                .build(),
        )
        .build()
}

fn seed_entries() -> Vec<(u64, u64)> {
    (0..120u64).map(|k| (k * 25, k)).collect()
}

/// The `b`-th deterministic batch: 60 writes spanning all three shards.
fn batch(b: u64) -> Vec<(u64, u64)> {
    (0..60u64)
        .map(|i| {
            let key = (i * 97 + b * 13) % 3_000;
            (key, b * 1_000 + i + 1)
        })
        .collect()
}

fn engine_state(engine: &ShardedPioEngine) -> BTreeMap<u64, u64> {
    engine.range_search(0, u64::MAX).expect("scan").into_iter().collect()
}

/// Runs `total` batches with an optional checkpoint after batch `ckpt_after`,
/// crashes, recovers, and returns the recovery's replayed-record count (after
/// verifying the recovered state against the oracle).
fn replayed_after(total: u64, ckpt_after: Option<u64>) -> u64 {
    let engine = EngineBuilder::new(config())
        .topology(DevicePerShard)
        .entries(&seed_entries())
        .build()
        .expect("engine");
    let mut model: BTreeMap<u64, u64> = seed_entries().into_iter().collect();
    for b in 0..total {
        let batch = batch(b);
        engine.insert_batch(&batch).expect("insert_batch");
        for &(k, v) in &batch {
            model.insert(k, v);
        }
        if ckpt_after == Some(b) {
            engine.checkpoint().expect("checkpoint");
        }
    }
    engine.simulate_crash();
    engine.recover().expect("recover");
    assert_eq!(engine_state(&engine), model, "recovered state must equal the oracle");
    engine.stats().recovery_replayed_records
}

/// The tentpole property: recovery work after a checkpoint is a function of
/// the post-checkpoint tail `k`, not of the pre-checkpoint history `K`. The
/// same metric without a checkpoint grows with the full history — the contrast
/// that shows truncation (not luck) provides the bound.
#[test]
fn recovery_work_tracks_the_checkpoint_tail_not_the_store_age() {
    // Fixed tail k = 3, growing history K: replayed records must not follow K.
    let tail3_small_history = replayed_after(15 + 3, Some(14));
    let tail3_large_history = replayed_after(60 + 3, Some(59));
    assert!(
        tail3_small_history > 0,
        "the tail's records must be scanned at recovery"
    );
    let ratio = tail3_large_history as f64 / tail3_small_history as f64;
    assert!(
        ratio <= 1.25,
        "recovery work must be independent of the checkpointed history: \
         K=15 → {tail3_small_history} records, K=60 → {tail3_large_history} ({ratio:.2}×)"
    );

    // Growing tail at fixed history: the metric scales with k.
    let tail9 = replayed_after(15 + 9, Some(14));
    assert!(
        tail9 > tail3_small_history,
        "a longer post-checkpoint tail must cost more: k=3 → {tail3_small_history}, k=9 → {tail9}"
    );

    // Control: without a checkpoint, the same histories diverge.
    let no_ckpt_small = replayed_after(18, None);
    let no_ckpt_large = replayed_after(63, None);
    assert!(
        no_ckpt_large as f64 >= 2.0 * no_ckpt_small as f64,
        "without truncation, recovery work follows the store's age: \
         K=18 → {no_ckpt_small}, K=63 → {no_ckpt_large}"
    );
    assert!(
        tail3_large_history < no_ckpt_large / 2,
        "the checkpoint must beat the untruncated control at equal history: \
         {tail3_large_history} vs {no_ckpt_large}"
    );
}

/// 50 write/checkpoint rounds: the replayable log stays at a small constant
/// per round (no monotone growth), truncation keeps reclaiming bytes, and a
/// checkpoint on a clean engine is a durable no-op (incremental selection).
#[test]
fn fifty_checkpoint_rounds_bound_log_growth() {
    let engine = EngineBuilder::new(config())
        .topology(DevicePerShard)
        .entries(&seed_entries())
        .build()
        .expect("engine");
    let page = 2048u64;
    let mut model: BTreeMap<u64, u64> = seed_entries().into_iter().collect();
    let mut truncated_last = 0u64;
    for round in 0..50u64 {
        let batch = batch(round);
        engine.insert_batch(&batch).expect("insert_batch");
        for &(k, v) in &batch {
            model.insert(k, v);
        }
        engine.checkpoint().expect("checkpoint");
        let stats = engine.stats();
        // Post-checkpoint residue: one Checkpoint record per shard WAL, an
        // empty engine-log tail. A page per shard is a generous ceiling — the
        // point is that it does not grow with the round index.
        assert!(
            stats.replayable_log_bytes() <= 3 * page,
            "round {round}: replayable log grew to {} bytes",
            stats.replayable_log_bytes()
        );
        assert!(
            stats.truncated_bytes > truncated_last,
            "round {round}: the checkpoint must keep truncating ({} not above {truncated_last})",
            stats.truncated_bytes
        );
        truncated_last = stats.truncated_bytes;
    }
    let stats = engine.stats();
    assert_eq!(stats.checkpoints, 50);

    // Incremental selection: with nothing new logged, a checkpoint neither
    // flushes nor truncates — the dirty-shard scan finds no work.
    let before = engine.stats();
    engine.checkpoint().expect("clean checkpoint");
    let after = engine.stats();
    assert_eq!(after.checkpoints, before.checkpoints + 1);
    assert_eq!(
        after.truncated_bytes, before.truncated_bytes,
        "a checkpoint of a clean engine must not truncate anything"
    );
    assert_eq!(
        after.rollup.bupdates, before.rollup.bupdates,
        "a checkpoint of a clean engine must not flush any shard"
    );

    assert_eq!(engine_state(&engine), model);
    engine.check_invariants().expect("invariants");
}

/// Physical reclamation on the real-files topology: repeated checkpoints
/// compact the WAL region, so the on-disk files shrink below their peak —
/// and a reopen from those shrunken logs still recovers the exact state.
#[test]
fn real_files_truncation_shrinks_the_on_disk_log() {
    let dir = TempDir::new("shrink");
    let engine = EngineBuilder::new(config())
        .topology(RealFiles::new(&dir.0))
        .entries(&seed_entries())
        .build()
        .expect("real-files engine");
    let mut model: BTreeMap<u64, u64> = seed_entries().into_iter().collect();

    let wal_paths: Vec<PathBuf> = (0..3)
        .map(|i| dir.0.join(format!("shard-{i:03}.wal")))
        .chain(std::iter::once(dir.0.join("engine.wal")))
        .collect();
    let sizes = |paths: &[PathBuf]| -> Vec<u64> {
        paths
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .collect()
    };

    // Enough rounds for the compaction cadence (first truncation is always
    // logical-only; compaction needs a dead prefix big enough to hold the
    // survivors, which takes a few rounds of accumulated freed pages).
    let mut peaks = vec![0u64; wal_paths.len()];
    for round in 0..8u64 {
        // Large-ish batches so every round logs more than a page per shard.
        let batch: Vec<(u64, u64)> = (0..300u64)
            .map(|i| {
                let key = (i * 89 + round * 31) % 30_000;
                (key, round * 1_000 + i + 1)
            })
            .collect();
        engine.insert_batch(&batch).expect("insert_batch");
        for &(k, v) in &batch {
            model.insert(k, v);
        }
        for (peak, size) in peaks.iter_mut().zip(sizes(&wal_paths)) {
            *peak = (*peak).max(size);
        }
        engine.checkpoint().expect("checkpoint");
    }
    let finals = sizes(&wal_paths);
    assert!(
        finals.iter().zip(&peaks).any(|(f, p)| f < p),
        "no WAL file shrank below its peak: peaks {peaks:?}, finals {finals:?}"
    );
    assert!(
        engine.stats().truncated_bytes > 0,
        "the rounds must have truncated something"
    );
    drop(engine);

    // The shrunken logs must still carry a full recovery.
    let (engine, _report) = EngineBuilder::new(config())
        .topology(RealFiles::new(&dir.0))
        .recover()
        .expect("reopen over truncated logs");
    assert_eq!(
        engine_state(&engine),
        model,
        "state recovered from compacted logs must equal the oracle"
    );
    engine.check_invariants().expect("invariants");
}

/// The tier-1 gate on log volume. Uniform-key inserts into a WAL-on tree of a
/// few hundred leaves make (nearly) every flush page write an append to a leaf
/// segment. What that costs in the log is the entry's redo record plus a
/// record count per touched segment — with a page pre-image per touched
/// segment it was ≈ 3.4 KB per 16-byte entry — and a force writes the log
/// without ever reading it back.
#[test]
fn an_appended_entry_costs_bytes_of_log_not_a_page_and_no_read_back() {
    let config = PioConfig::builder()
        .page_size(4096)
        .leaf_segments(2)
        .opq_pages(1)
        .pio_max(16)
        .speriod(32)
        .bcnt(64)
        .pool_pages(64)
        .build();
    let store_io = Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 28));
    let store = Arc::new(CachedStore::new(
        PageStore::new(store_io, 4096),
        64,
        WritePolicy::WriteThrough,
    ));
    let loaded: Vec<(u64, u64)> = (0..60_000u64).map(|k| (k * 16, k)).collect();
    let mut tree = PioBTree::bulk_load(store, &loaded, config).expect("bulk load");
    let log_io: Arc<dyn IoQueue> = Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, 64 << 20));
    tree.attach_wal(Wal::new(Arc::clone(&log_io), 0, 4096));

    // Warm-up: the first flushes, so the window starts mid-stream (a partial
    // tail page on the log, every counter moving).
    let mut x = 0x5EED_1065_u64;
    let mut next_key = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % (60_000 * 16)
    };
    let mut inserted = 0u64;
    while tree.stats().bupdates < 3 {
        tree.insert(next_key(), inserted).expect("insert");
        inserted += 1;
    }

    let before = tree.stats();
    let logged_before = tree.wal().expect("attached").next_lsn();
    let reads_before = log_io.io_stats().reads;
    let window_start = inserted;
    while tree.stats().bupdates < before.bupdates + 20 {
        tree.insert(next_key(), inserted).expect("insert");
        inserted += 1;
    }
    let after = tree.stats();
    let appends = after.leaf_appends - before.leaf_appends;
    let rewrites = after.leaf_rewrites - before.leaf_rewrites;
    assert!(
        appends >= 20 * 16 && appends >= 20 * rewrites,
        "the window must be 20 append-path flushes: {appends} appends, {rewrites} rewrites"
    );
    let per_entry = (tree.wal().expect("attached").next_lsn() - logged_before) / (inserted - window_start);
    assert!(
        per_entry <= 256,
        "{per_entry} B of WAL per inserted entry: an append must log its old record count, not a page pre-image"
    );
    assert_eq!(
        log_io.io_stats().reads,
        reads_before,
        "a force must not read the log's tail page back between its writes"
    );
    tree.checkpoint().expect("checkpoint");
    tree.check_invariants().expect("invariants");
}
