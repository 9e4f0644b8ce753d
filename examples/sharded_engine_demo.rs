//! Sharded PIO engine walkthrough: bulk load a key-range-partitioned engine, fan
//! requests out across the shards, let the background maintenance worker drain the
//! operation queues, read the aggregated statistics — and finally crash the
//! engine mid-batch and watch cross-shard recovery resolve the interrupted epoch.
//!
//! Run with `cargo run --example sharded_engine_demo`.

use engine::{EngineBackends, EngineBuilder, EngineConfig, ShardedPioEngine};
use pio::{CrashPlan, FaultClock, FaultIo, IoQueue, SimPsyncIo};
use pio_btree::{LogRecord, PioConfig};
use ssd_sim::DeviceProfile;
use std::sync::Arc;
use workload::{replay, KeyDistribution, MixSpec, OperationGenerator};

fn main() {
    // Four shards over a simulated Micron P300; the pool budget is an engine-wide
    // total divided across the shards, while each shard owns a full-size OPQ.
    let config = EngineConfig::builder()
        .shards(4)
        .profile(DeviceProfile::P300)
        .shard_capacity_bytes(4 << 30)
        .base(
            PioConfig::builder()
                .page_size(4096)
                .leaf_segments(2)
                .opq_pages(8)
                .pio_max(64)
                .pool_pages(2048)
                .build(),
        )
        .maintenance_interval_ms(5)
        .build();

    // Bulk load 400k entries; the entry keys double as the boundary sample, so the
    // quantile cuts give every shard ~100k entries.
    let entries: Vec<(u64, u64)> = (0..400_000u64).map(|k| (k * 5, k)).collect();
    let engine = ShardedPioEngine::bulk_load(config, &entries).expect("bulk load");
    println!("loaded {} entries into {} shards", entries.len(), engine.shard_count());
    println!("shard boundaries: {:?}", engine.boundaries());

    // A cross-shard MPSearch: the router splits the batch by owning shard and the
    // shards run their MPSearches concurrently.
    let keys: Vec<u64> = (0..256u64).map(|i| i * 7_919 % 2_000_000).collect();
    let hits = engine.multi_search(&keys).expect("multi_search");
    println!(
        "multi_search over {} keys across shards: {} hits",
        keys.len(),
        hits.iter().filter(|h| h.is_some()).count()
    );

    // A range scan straddling every shard boundary, stitched back in key order.
    let range = engine.range_search(0, 100_000).expect("range_search");
    println!(
        "range_search [0, 100k): {} entries (first {:?}, last {:?})",
        range.len(),
        range.first(),
        range.last()
    );

    // Drive a mixed workload through the generic workload driver; the background
    // maintenance worker drains shard OPQs off the foreground path meanwhile.
    let mix = MixSpec {
        insert: 0.4,
        delete: 0.05,
        update: 0.05,
        range_search: 0.02,
        range_span: 200,
    };
    let mut generator = OperationGenerator::new(42, 2_000_000, KeyDistribution::Uniform, mix);
    let ops = generator.generate(50_000);
    let mut target = engine;
    let replay_stats = replay(&mut target, &ops, 64).expect("replay");
    println!(
        "replayed {} ops ({} inserts, {} searches in {} MPSearch rounds, hit ratio {:.2})",
        replay_stats.total_ops(),
        replay_stats.inserts,
        replay_stats.searches,
        replay_stats.search_batches,
        replay_stats.search_hits as f64 / replay_stats.searches.max(1) as f64,
    );
    let engine = target;
    engine.checkpoint().expect("checkpoint");

    // Aggregated statistics: per-shard + rollup, device work vs schedule makespan.
    let stats = engine.stats();
    println!("\nper-shard state after the workload:");
    for shard in &stats.shards {
        println!(
            "  shard {}: keys [{}, {}), height {}, {} inserts, {} bupdates, pool hit ratio {:.2}, {:.0} µs of I/O",
            shard.shard,
            shard.key_lo,
            shard.key_hi,
            shard.height,
            shard.pio.inserts,
            shard.pio.bupdates,
            shard.pool.hit_ratio(),
            shard.io_elapsed_us,
        );
    }
    println!(
        "\nengine totals: {} ops, device work {:.0} µs, schedule makespan {:.0} µs → {:.2}x cross-shard I/O overlap",
        stats.rollup.searches + stats.rollup.multi_searches + stats.rollup.update_ops(),
        stats.total_io_us,
        stats.scheduled_io_us,
        stats.overlap_factor(),
    );
    println!(
        "maintenance passes that flushed at least one shard: {}",
        stats.maintenance_flushes
    );

    // ---- Crash recovery: kill the engine mid-batch, reopen, recover ----------
    //
    // A WAL-enabled engine runs every insert_batch that spans shards as a
    // flush epoch: each member shard forces its sub-batch in its own WAL, then
    // the lowest member — the coordinator — forces an EpochCommit record in
    // its WAL. Here shard 0's WAL is wrapped in the fault-injection harness and
    // the crash is scripted onto that commit force: every shard's sub-batch is
    // durable, but no log holds the commit — the exact window where naive
    // per-shard recovery would replay a batch the protocol never decided.
    // Recovery presumes abort and discards the epoch on every shard.
    println!("\n--- simulated crash mid-insert_batch ---");
    let crash_config = EngineConfig::builder()
        .shards(3)
        .profile(DeviceProfile::P300)
        .shard_capacity_bytes(1 << 28)
        .base(
            PioConfig::builder()
                .page_size(2048)
                .leaf_segments(2)
                .opq_pages(2)
                .pio_max(16)
                .pool_pages(192)
                .wal(true)
                .build(),
        )
        .build();
    let coordinator_clock = FaultClock::new();
    let mut shard_wals: Vec<Arc<dyn IoQueue>> = (0..3)
        .map(|_| Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, 64 << 20)) as Arc<dyn IoQueue>)
        .collect();
    shard_wals[0] = Arc::new(FaultIo::new(Arc::clone(&shard_wals[0]), Arc::clone(&coordinator_clock)));
    let backends = EngineBackends {
        shard_stores: (0..3)
            .map(|_| Arc::new(SimPsyncIo::with_profile(DeviceProfile::P300, 1 << 28)) as Arc<dyn IoQueue>)
            .collect(),
        shard_wals,
        engine_wal: None,
    };
    let sample: Vec<u64> = (0..30_000).collect();
    // The fault-wrapped backends slot into the same builder every topology uses.
    let engine = EngineBuilder::new(crash_config)
        .key_sample(&sample)
        .topology(backends)
        .build()
        .expect("crash demo engine");

    // A committed batch, then one whose EpochCommit write is killed.
    let committed: Vec<(u64, u64)> = (0..600u64).map(|k| (k * 50, k)).collect();
    engine.insert_batch(&committed).expect("committed batch");
    let doomed: Vec<(u64, u64)> = (0..600u64).map(|k| (k * 50 + 1, k + 1_000_000)).collect();
    // The second batch is epoch 2: kill the first shard-0 write that carries
    // its commit record (8-byte WAL record header, then the record itself).
    let commit = LogRecord::EpochCommit { epoch: 2 }.encode();
    coordinator_clock.arm(CrashPlan::on_payload(move |writes| {
        writes
            .iter()
            .any(|w| w.data.windows(commit.len()).any(|window| window == commit))
    }));
    let crash_err = engine.insert_batch(&doomed).expect_err("the scripted crash fires");
    println!(
        "insert_batch of {} entries died mid-protocol: {crash_err}",
        doomed.len()
    );

    let lost = engine.simulate_crash();
    coordinator_clock.heal();
    println!("crash: {lost} queued operations lost, reopening...");
    let report = engine.recover().expect("recovery");
    println!(
        "recover(): {} committed epoch(s) replayed, {} discarded ({} records dropped, {} redone)",
        report.committed_epochs,
        report.discarded_epochs,
        report.discarded_records(),
        report.redone(),
    );
    engine.checkpoint().expect("post-recovery checkpoint");
    let stats = engine.stats();
    println!(
        "EngineStats: committed_epochs {}, discarded_epochs {}",
        stats.committed_epochs, stats.discarded_epochs
    );
    let survivors = engine.count_entries().expect("count");
    println!(
        "state after recovery: {survivors} entries — the committed batch survived in full, \
         the uncommitted one vanished on every shard"
    );
    assert_eq!(survivors, committed.len() as u64);
}
