//! Engine-as-a-service walkthrough: 16 concurrent closed-loop clients hammer
//! one `EngineService` over a shared simulated device. The admission
//! controller coalesces the independent requests into per-shard batches — a
//! request on an idle shard runs at once, the rest gather while the batch
//! ahead of them executes; gets become cross-client MPSearches, puts one
//! group commit the shard forces alone — and every response carries its own timing, so at
//! the end we can print real latency percentiles next to the batching
//! accounting and the engine's ground-truth occupancy counters.
//!
//! Run with `cargo run --release --example service_demo`.

use engine::{EngineBuilder, EngineConfig, SharedDevice};
use pio_btree::PioConfig;
use service::EngineService;
use ssd_sim::DeviceProfile;
use std::sync::Arc;
use std::time::Duration;
use workload::{run_closed_loop, ClientMix, ClosedLoopSpec, KeyDistribution};

fn main() {
    // One SSD, four shards as address partitions of it, and the service's
    // batching knob: a builder is run at once when it reaches 64 requests
    // (otherwise when the batch ahead of it in its slot finishes).
    let config = EngineConfig::builder()
        .shards(4)
        .profile(DeviceProfile::P300)
        .shard_capacity_bytes(4 << 30)
        .max_batch_size(64)
        .base(
            PioConfig::builder()
                .page_size(2048)
                .leaf_segments(2)
                .opq_pages(8)
                .pio_max(32)
                .speriod(256)
                .bcnt(512)
                .pool_pages(1024)
                .build(),
        )
        // Pin the inner levels in memory and give leaf regions a
        // scan-resistant cache: warm descents then skip the store entirely
        // and the Zipfian working set survives the clients' scans.
        .inner_tier_bytes(2048 * 256)
        .leaf_cache_bytes(2048 * 1024)
        .build();

    let entries: Vec<(u64, u64)> = (0..200_000u64).map(|k| (k * 19, k)).collect();
    let key_space = 200_000 * 19;
    let engine = Arc::new(
        EngineBuilder::new(config)
            .topology(SharedDevice)
            .entries(&entries)
            .build()
            .expect("bulk load"),
    );
    println!(
        "loaded {} entries into {} shards on one shared device",
        entries.len(),
        engine.shard_count()
    );

    let service = EngineService::start(Arc::clone(&engine));

    // 16 closed-loop clients: each submits one request, blocks for the
    // response, and immediately submits the next — a read-heavy serving mix
    // with Zipfian-skewed keys, the shape a front end actually sees.
    let spec = ClosedLoopSpec {
        clients: 16,
        ops_per_client: 2_000,
        think_time: Duration::ZERO,
        key_space,
        distribution: KeyDistribution::Zipfian { theta: 0.9 },
        mix: ClientMix::read_heavy(),
        seed: 0xD05,
    };
    let report = run_closed_loop(&service.handle(), &spec).expect("closed loop");
    println!(
        "\n{} clients × {} ops: {} gets ({} hits), {} puts, {} scans ({} entries) in {:.2?} wall",
        spec.clients,
        spec.ops_per_client,
        report.gets,
        report.get_hits,
        report.puts,
        report.scans,
        report.scanned_entries,
        report.wall
    );

    let stats = service.shutdown();
    println!("\n--- per-request latency (wall clock) ---");
    println!("end-to-end:    {}", stats.e2e);
    println!("queue wait:    {}", stats.queue_wait);
    println!("batch service: {}", stats.batch_service);

    println!("\n--- batching ---");
    println!(
        "{} batches carried {} requests: {:.2} requests per engine call",
        stats.batches_formed,
        stats.batched_requests,
        stats.avg_batch_occupancy()
    );
    println!(
        "flush triggers: {} idle slot, {} hand-over, {} size-triggered, {} drained at shutdown",
        stats.idle_flushes, stats.handover_flushes, stats.size_triggered_flushes, stats.drain_flushes
    );

    // The engine keeps its own per-shard occupancy counters — the ground truth
    // the service's accounting must agree with (bulk load adds no batches, so
    // the lifetime counters match the service's exactly).
    let engine_stats = engine.stats();
    println!("\n--- engine ground truth ---");
    println!(
        "engine saw {} sub-batches carrying {} requests: occupancy {:.2} (service reported {:.2})",
        engine_stats.batched_calls,
        engine_stats.batched_ops,
        engine_stats.avg_batch_occupancy(),
        stats.avg_batch_occupancy()
    );
    println!(
        "schedule makespan {:.0}ms of {:.0}ms device work (overlap {:.2}x), pool hit ratio {:.1}%",
        engine_stats.scheduled_io_us / 1e3,
        engine_stats.total_io_us / 1e3,
        engine_stats.overlap_factor(),
        engine_stats.pool_hit_ratio * 100.0
    );
    println!(
        "inner tier hit rate {:.1}% ({} rebuilds), \
         leaf cache hit rate {:.1}% ({} scan bypasses)",
        engine_stats.inner_tier_hit_rate() * 100.0,
        engine_stats.rollup.inner_tier_rebuilds,
        engine_stats.leaf_cache_hit_rate() * 100.0,
        engine_stats.leaf_cache.scan_bypasses
    );

    // The rebalancer's input, visible per shard: how the Zipfian mass actually
    // landed (routed ops so far) and how hard each OPQ was pushed (peak fill).
    // A skew-shifted run would show one shard dominating — the signal
    // `rebalance_once` acts on.
    println!("\n--- per-shard load (routed ops / OPQ peak so far) ---");
    for shard in &engine_stats.shards {
        println!(
            "shard {} [{:>12}, {:>20}): {:>6} routed, OPQ peak {:>3}%",
            shard.shard, shard.key_lo, shard.key_hi, shard.routed_ops, shard.queue_peak_pct
        );
    }
    println!(
        "routing version {} ({} splits, {} merges, {} keys migrated)",
        engine_stats.routing_version, engine_stats.splits, engine_stats.merges, engine_stats.migrated_keys
    );
}
