//! Figure 9 extension: the leaf budget at an equal memory budget.
//!
//! One claim, asserted (this bench doubles as a regression gate): the leaf
//! budget is a size, not a mode. An engine that spends its whole budget on
//! the pool and one that splits the same budget into pool + leaf budget have
//! one cache of the same size, in which every leaf page is a leaf entry and
//! every internal node an inner one. On a skewed multi-search workload over a
//! shared device the two take exactly the same simulated time and count
//! exactly the same hits and misses in each class — and the hot leaves live
//! in the cache of both, while the internal nodes stay resident for the
//! descents to walk.
//!
//! Reported in simulated device time, as everywhere in this harness.

use engine::{EngineBuilder, EngineConfig, ShardedPioEngine, SharedDevice};
use pio_bench::{ratio, scaled, setup, us, Table};
use pio_btree::PioConfig;
use ssd_sim::DeviceProfile;

const PAGE: usize = 2048;

/// Total memory budget in pages, split two ways across the compared engines.
const BUDGET_PAGES: u64 = 3072;

/// xorshift key stream, deterministic across the compared engines.
fn key_stream(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

fn engine_with(pool_pages: u64, cache_pages: u64, entries: &[(u64, u64)]) -> ShardedPioEngine {
    let mut builder = EngineConfig::builder()
        .shards(4)
        .profile(DeviceProfile::P300)
        .shard_capacity_bytes(8 << 30)
        .base(
            PioConfig::builder()
                .page_size(PAGE)
                .leaf_segments(2)
                .opq_pages(4)
                .pool_pages(pool_pages)
                .build(),
        );
    if cache_pages > 0 {
        builder = builder.leaf_cache_bytes(cache_pages * PAGE as u64);
    }
    EngineBuilder::new(builder.build())
        .topology(SharedDevice)
        .entries(entries)
        .build()
        .expect("engine build")
}

/// The skewed serving workload: 80% of probes cycle a hot set that fits the
/// leaf cache, 20% are uniform over the whole space.
fn drive(engine: &ShardedPioEngine, hot: &[u64], key_space: u64, rounds: usize) -> f64 {
    let mut next = key_stream(0xB07);
    let mut hot_i = 0usize;
    // Warm-up: one full pass so both engines start from steady state.
    for _ in 0..4 {
        let keys: Vec<u64> = (0..256)
            .map(|_| {
                hot_i = (hot_i + 1) % hot.len();
                hot[hot_i]
            })
            .collect();
        engine.multi_search(&keys).unwrap();
    }
    let before = engine.stats().total_io_us;
    for _ in 0..rounds {
        let keys: Vec<u64> = (0..256)
            .map(|i| {
                if i % 5 == 4 {
                    next() % key_space
                } else {
                    hot_i = (hot_i + 1) % hot.len();
                    hot[hot_i]
                }
            })
            .collect();
        engine.multi_search(&keys).unwrap();
    }
    engine.stats().total_io_us - before
}

fn main() {
    let mut table = Table::new(
        "fig09_leaf_cache",
        "All pool vs pool + leaf budget: one cache at equal memory on a shared device",
        &["configuration", "memory", "elapsed_ms", "detail", "speedup"],
    );
    let n = setup::initial_entries();
    let key_space = n * 4;
    let entries = setup::bulk_entries(n);
    let rounds = scaled(12_000) / 256;
    // 512 hot keys scattered over the space: their leaves fit the budget.
    let hot: Vec<u64> = (0..512u64).map(|i| (i * (key_space / 512)) / 4 * 4).collect();

    // The whole budget in the pool, no leaf budget.
    let all_pool = engine_with(BUDGET_PAGES, 0, &entries);
    let all_pool_us = drive(&all_pool, &hot, key_space, rounds);
    // The same budget split: pool 1536 + leaf budget 1536 pages.
    let split = engine_with(BUDGET_PAGES / 2, BUDGET_PAGES / 2, &entries);
    let split_us = drive(&split, &hot, key_space, rounds);

    let (all_pool, split) = (all_pool.stats(), split.stats());
    let detail = |stats: &engine::EngineStats| {
        format!(
            "walked {:.0}%, leaf cache {:.0}%",
            stats.inner_tier_hit_rate() * 100.0,
            stats.leaf_cache_hit_rate() * 100.0
        )
    };
    table.row(vec![
        "all pool".into(),
        format!("{BUDGET_PAGES} pages pool"),
        us(all_pool_us / 1e3),
        detail(&all_pool),
        "-".into(),
    ]);
    table.row(vec![
        "pool + leaf budget".into(),
        format!("{}+{} pages", BUDGET_PAGES / 2, BUDGET_PAGES / 2),
        us(split_us / 1e3),
        detail(&split),
        ratio(all_pool_us, split_us),
    ]);
    table.finish();
    assert!(
        split.inner_tier_hit_rate() > 0.9,
        "the halved pool must still hold the internal levels: {:.3} of descents walked it",
        split.inner_tier_hit_rate()
    );
    assert_eq!(
        all_pool_us, split_us,
        "one budget, one cache: all pool {all_pool_us:.0} µs vs pool + leaf budget {split_us:.0} µs"
    );
    let counters =
        |stats: &engine::EngineStats| -> Vec<_> { stats.shards.iter().map(|s| (s.pool, s.leaf_cache)).collect() };
    assert_eq!(
        counters(&all_pool),
        counters(&split),
        "one budget, one cache: the per-shard inner and leaf counters differ"
    );
    println!("\nfig09_leaf_cache done.");
}
