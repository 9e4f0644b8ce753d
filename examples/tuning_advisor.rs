//! Tuning advisor: the Section 3.6 procedure as a standalone tool. It
//! micro-benchmarks a device profile, evaluates the cost model (eqs. 3, 9, 10) and
//! prints the recommended B+-tree node size and PIO B-tree `(leaf size, OPQ size)`
//! for several workload mixes and memory budgets — plus, from the device's
//! geometry (channels × packages vs the per-shard outstanding-I/O level), the
//! recommended **shard count** for the sharded engine.
//!
//! Run with: `cargo run --example tuning_advisor`

use engine::EngineConfig;
use pio_btree::cost::{auto_tune, optimal_btree_node_size, recommended_shards, CostModel, WorkloadMix};
use pio_btree::PioConfig;
use ssd_sim::bench::{characterise, leaf_read_latency};
use ssd_sim::{DeviceProfile, SsdDevice};

fn main() {
    let entries = 100_000_000u64; // the index size you plan to build
    let page_size = 2048usize;
    let memory_budget_pages = 8_192u64; // 16 MiB of 2 KiB pages, as in the paper

    println!(
        "PIO B-tree tuning advisor ({} entries, {} MiB memory budget)",
        entries,
        memory_budget_pages * 2 / 1024
    );
    for profile in DeviceProfile::all() {
        let config = profile.build();
        let mut device = SsdDevice::new(config.clone());
        let chars = characterise(&mut device, page_size as u64, 64, 42);
        let node = optimal_btree_node_size(&mut device, &[2048, 4096, 8192, 16384, 32768], 42);
        println!("\ndevice: {}", profile.name());
        println!(
            "  measured: Pr={:.0}us Pw={:.0}us P'r={:.0}us P'w={:.0}us",
            chars.page_read_us, chars.page_write_us, chars.psync_read_us, chars.psync_write_us
        );
        println!("  B+-tree optimal node size (eq. 3): {} bytes", node);
        // Engine shard count from the device geometry: enough independent psync
        // streams that shards × PioMax covers channels × packages (the device's
        // internal parallelism), and no more — extra shards past that point only
        // add host-side stream parallelism. Next to it, the pipeline depth each
        // shard's Auto policy resolves to on this device: ceil(NCQ / PioMax)
        // in-flight batches, so one shard's ticket pipeline fills the queue.
        let shard_recs: Vec<String> = [8usize, 32, 64]
            .iter()
            .map(|&pio_max| {
                let tree_cfg = PioConfig {
                    pio_max,
                    ..PioConfig::default()
                };
                format!(
                    "PioMax {pio_max} → {} shard(s), pipeline depth {}",
                    config.recommended_shard_count(pio_max),
                    tree_cfg.resolve_pipeline_depth(Some(config.ncq_depth)),
                )
            })
            .collect();
        println!(
            "  engine shards for {} channels × {} packages (NCQ {}): {}",
            config.channels,
            config.packages_per_channel,
            config.ncq_depth,
            shard_recs.join(", ")
        );
        // Resolved in-memory budgets next to the shard count: carve the memory
        // budget 1/4 pool, 3/4 leaf cache (inner levels are small — the pool
        // holds them whole long before the cache warms) and show the
        // per-shard page budgets `EngineConfig::shard_config` resolves, the
        // same arithmetic the engine applies at build time.
        let shards = config.recommended_shard_count(64).max(1);
        let pool_pages = memory_budget_pages / 4;
        let leaf_cache_bytes = (memory_budget_pages - pool_pages) * page_size as u64;
        let mem_cfg = EngineConfig::builder()
            .shards(shards)
            .base(PioConfig::builder().page_size(page_size).pool_pages(pool_pages).build())
            .leaf_cache_bytes(leaf_cache_bytes)
            .build();
        let per_shard = mem_cfg.shard_config();
        println!(
            "  memory budget at {shards} shard(s): pool {} KiB ({} pages/shard), \
             leaf cache {} KiB ({} pages/shard)",
            pool_pages * page_size as u64 / 1024,
            per_shard.pool_pages,
            leaf_cache_bytes / 1024,
            per_shard.leaf_cache_pages,
        );
        // The resilience policy: what every shard queue (store, WAL, epoch
        // log) does on a transient device error, and the service's limits.
        let policy = EngineConfig::retry_policy();
        println!(
            "  retry policy: up to {} retries, backoff {} µs doubling, {} µs deadline/ticket \
             (accounted into simulated latency); request deadline {}, admission queue {}",
            policy.retry_limit,
            policy.backoff_base_us,
            policy.deadline_us,
            mem_cfg
                .request_deadline_ms
                .map_or("unbounded".into(), |ms| format!("{ms} ms")),
            mem_cfg
                .admission_queue_limit
                .map_or("unbounded".into(), |n| format!("≤ {n} requests")),
        );
        for (label, mix) in [
            ("search-heavy (10% inserts)", WorkloadMix::with_insert_ratio(0.1)),
            ("balanced     (50% inserts)", WorkloadMix::with_insert_ratio(0.5)),
            ("insert-heavy (90% inserts)", WorkloadMix::with_insert_ratio(0.9)),
        ] {
            let tuning = auto_tune(
                &mut device,
                page_size,
                entries,
                memory_budget_pages,
                mix,
                &[1, 2, 4, 8],
                &[1, 16, 64, 256, 1024],
                64,
                42,
            );
            // The workload-aware half of the shard recommendation: evaluate
            // eq. (9) per shard of an s-way engine (entries and pool split,
            // OPQ multiplied) against the geometric stream capacity above.
            let leaf_read_us = leaf_read_latency(
                &mut device,
                page_size as u64,
                tuning.leaf_pages as u64,
                42 ^ tuning.leaf_pages as u64,
            );
            let model = CostModel {
                entries: entries as f64,
                fanout: ((page_size / 16) as f64 * 0.7).max(2.0),
                page_read_us: chars.page_read_us,
                page_write_us: chars.page_write_us,
                psync_read_us: chars.psync_read_us,
                psync_write_us: chars.psync_write_us,
                leaf_read_us,
                leaf_pages: tuning.leaf_pages as f64,
                pool_pages: memory_budget_pages as f64,
                opq_pages: tuning.opq_pages as f64,
                opq_entries_per_page: (page_size / pio_btree::entry::ENTRY_BYTES) as f64,
                bcnt: 5000.0,
            };
            let streams = config.recommended_shard_count(64);
            let shard_tuning = recommended_shards(&model, mix, streams, 16);
            println!(
                "  {label}: leaf = {} pages ({} KiB), OPQ = {} pages, predicted {:.0} us/op; \
                 workload-aware shards = {} ({:.0} us effective/op at {} device stream(s))",
                tuning.leaf_pages,
                tuning.leaf_pages * page_size / 1024,
                tuning.opq_pages,
                tuning.predicted_cost_us,
                shard_tuning.shards,
                shard_tuning.predicted_cost_us,
                streams,
            );
        }
    }
}
